(* Ops, golden answers and the timed loop shared by every workload. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

type answer = {
  costs : string;  (** the optimization vector, "priority:value,..." *)
  id : string Lazy.t;
      (** what identifies the answer: a DAG hash, an install's new records,
          or the verdict of an independent check; forced after the op's
          clock stops *)
  sat : int array option;  (** the search's {!Asp.Sat.stats}, when known *)
}

type op = {
  key : string;  (** golden key, unique within the workload *)
  run : unit -> answer;  (** the untraced op, through the public entry point *)
  replay : int -> answer;
      (** the same op replayed through each layer's public call, under spans
          carrying the given op id *)
  prime : unit -> unit;
      (** builds the op's inputs (facts, encoding) and discards them *)
  optima : answer -> string list;
      (** the ids of every optimal answer, given one (for [record]) *)
}

let sat_key (s : Asp.Sat.stats) =
  [|
    s.Asp.Sat.conflicts;
    s.decisions;
    s.propagations;
    s.restarts;
    s.learnt_literals;
    s.pb_propagations;
  |]

let costs_string costs =
  String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) costs)

(* Deterministic shuffle (Fisher-Yates) driven by [rng]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Golden answers, recorded once by the [record] command and checked on
   every run: one "key<TAB>costs<TAB>ids" line per op, where [ids] lists,
   space-separated, every answer that attains the optimum.  An answer
   passes when its cost vector equals the golden one and its id is among
   the golden ids: optima can tie, and which tied optimum the search
   reaches depends on the order terms were interned in the process. *)
module Golden = struct
  type entry = { g_costs : string; g_ids : string list }

  let file dir workload = Filename.concat dir (workload ^ ".tsv")

  let load dir workload =
    let tbl = Hashtbl.create 256 in
    let ic = open_in (file dir workload) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            match String.split_on_char '\t' line with
            | [ key; g_costs; ids ] ->
              Hashtbl.replace tbl key { g_costs; g_ids = String.split_on_char ' ' ids }
            | _ -> failwith ("malformed golden line: " ^ line)
          done
        with End_of_file -> ());
    tbl

  let save dir workload entries =
    let oc = open_out (file dir workload) in
    List.iter
      (fun (k, e) -> Printf.fprintf oc "%s\t%s\t%s\n" k e.g_costs (String.concat " " e.g_ids))
      (List.sort compare entries);
    close_out oc

  let matches e a = String.equal e.g_costs a.costs && List.mem (Lazy.force a.id) e.g_ids
end

(* Run [f], turning any exception into a failed op; checks the answer
   against the golden.  Returns the latency and the answer when it passed. *)
let attempt golden key f =
  let t0 = Measure.now () in
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let dt = Measure.now () -. t0 in
  let r =
    match r with
    | Ok a -> ( try ignore (Lazy.force a.id); r with e -> Error (Printexc.to_string e))
    | Error _ -> r
  in
  let ok =
    match r with
    | Error m ->
      Printf.eprintf "op %s failed: %s\n%!" key m;
      None
    | Ok a -> (
      match Hashtbl.find_opt golden key with
      | Some g when Golden.matches g a -> Some a
      | Some g ->
        Printf.eprintf "op %s: answer %s %s differs from golden %s %s\n%!" key a.costs
          (Lazy.force a.id) g.Golden.g_costs (String.concat " " g.Golden.g_ids);
        None
      | None ->
        Printf.eprintf "op %s: no golden answer\n%!" key;
        None)
  in
  (dt, ok)

type tally = {
  mutable latencies : float list;  (** of the current pass *)
  mutable attempted : int;
  mutable failed : int;
  mutable passes : (float * float list) list;
      (** per finished pass: its ops completed per second and latencies *)
}

let tally () = { latencies = []; attempted = 0; failed = 0; passes = [] }

let record t (dt, ok) =
  t.latencies <- dt :: t.latencies;
  t.attempted <- t.attempted + 1;
  if Option.is_none ok then t.failed <- t.failed + 1

(* Whole passes of the fixed script, so every run measures the same mix of
   ops: at least [min_passes], then more until [seconds] of timed passes
   have accumulated.  [between] runs untimed before every pass but the
   first.  A pass's throughput is its completed ops over the sum of their
   latencies, which for one closed-loop caller is its wall-clock rate less
   the harness's own work between ops. *)
let passes ?(between = ignore) ?(min_passes = 1) ~seconds pass =
  let t = tally () in
  let rec go k elapsed =
    if k < min_passes || elapsed < seconds then begin
      if k > 0 then between ();
      let attempted = t.attempted and failed = t.failed in
      t.latencies <- [];
      let (), dt = Measure.time (fun () -> pass t) in
      let completed = t.attempted - attempted - (t.failed - failed) in
      t.passes <-
        (Measure.ratio (float_of_int completed) (Measure.sum t.latencies), t.latencies)
        :: t.passes;
      go (k + 1) (elapsed +. dt)
    end
  in
  go 0 0.;
  t

(* Host-speed calibration for the CPU-bound in-process ops.

   The reference host's speed drifts by up to 2x over periods of a fraction
   of a second to minutes, so raw wall times of identical work spread by
   20-40% between runs.  A fixed kernel in the benchmark's own code
   (pointer chasing through 8 MB, hashing, allocation) is timed before a
   pass and after every op.  Each op's wall time is scaled by
   [kernel_reference_s] over the mean of the two samples around it, so it
   reads as seconds on the reference host at full speed.  The kernel calls
   nothing in the system under test, so a change to the system shows in
   full. *)
let kernel_reference_s = 0.022

let chase =
  lazy
    (let n = 1 lsl 20 in
     let a = Array.init n Fun.id in
     let rng = Random.State.make [| 7 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let x = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- x
     done;
     a)

let kernel () =
  let a = Lazy.force chase in
  let x = ref 0 in
  for _ = 1 to 150_000 do
    x := a.(!x)
  done;
  let h = Hashtbl.create 4096 in
  for i = 1 to 30_000 do
    Hashtbl.replace h (i * 7919 land 65535) [ i; !x ]
  done;
  !x + Hashtbl.length h

let kernel_s () = snd (Measure.time (fun () -> ignore (Sys.opaque_identity (kernel ()))))

(* Runs [f] and returns its wall time scaled as above. *)
let calibrated f =
  let before = kernel_s () in
  let r, dt = Measure.time f in
  (r, dt *. kernel_reference_s /. ((before +. kernel_s ()) /. 2.))

(* One pass of in-process ops, each latency scaled as above. *)
let calibrated_pass t run ops =
  let prev = ref (kernel_s ()) in
  List.iter
    (fun o ->
      let dt, ok = run o in
      let k = kernel_s () in
      record t (dt *. kernel_reference_s /. ((!prev +. k) /. 2.), ok);
      prev := k)
    ops

(* Each timing is the median over the run's passes of that pass's figure;
   a pass's latency percentiles are Harrell-Davis estimates. *)
let end_to_end t ~peak_rss_mb ~setup_s =
  let over f = Measure.median (List.map f t.passes) in
  [
    Measure.metric "throughput_rps" "1/s" (over fst);
    Measure.metric "latency_s.p50" "s" (over (fun (_, l) -> Measure.hd_quantile 0.5 l));
    Measure.metric "latency_s.p90" "s" (over (fun (_, l) -> Measure.hd_quantile 0.9 l));
    Measure.metric "peak_rss_mb" "MB" peak_rss_mb;
    Measure.metric "setup_s" "s" setup_s;
  ]
