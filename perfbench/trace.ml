(* In-memory spans around the benchmark's calls into each layer.

   A span has a name, start, end, the span that was open when it started
   (its parent) and the op it belongs to.  Spans stay in memory and are
   written out once, as a Chrome trace-event file, when the run ends.  A
   layer's self time is its span's duration minus the time its child spans
   cover. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 at the top level *)
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span ~op name f =
  let s =
    { id = !next_id; name; op; parent = !current; t0 = Measure.now (); t1 = nan }
  in
  incr next_id;
  spans := s :: !spans;
  let saved = !current in
  current := s.id;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Measure.now ();
      current := saved)
    f

(* Work counts recorded at the same boundaries as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  let c = Option.value (Hashtbl.find_opt counters name) ~default:0. in
  Hashtbl.replace counters name (c +. v)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* Self seconds per span name. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (c +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      in
      let c = Option.value (Hashtbl.find_opt by_name s.name) ~default:0. in
      Hashtbl.replace by_name s.name (c +. self))
    !spans;
  fun name -> Option.value (Hashtbl.find_opt by_name name) ~default:0.

(* Total duration of the spans called [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.t1 -. s.t0) else acc)
    0. !spans

let write_chrome path =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"op\": %d, \"id\": %d, \
             \"parent\": %d}}"
            (if i = 0 then "" else ",\n")
            (Measure.json_string s.name)
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.op s.id s.parent)
        (List.rev !spans);
      output_string oc "\n]\n")
