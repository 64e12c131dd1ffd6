(* Clocks, order statistics, peak memory and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks; 0 on an empty sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile 0.5 xs

(* Harrell-Davis estimate of the [p] quantile: a weighted mean of the
   order statistics, the i-th weighted by the mass a Beta(p(n+1),
   (1-p)(n+1)) distribution puts on [(i-1)/n, i/n] (Simpson's rule, then
   normalised).  Where the sample is sparse around the quantile, as the
   spack-repo ops are around their median, it does not jump from one order
   statistic to the next as the closest-rank estimate does. *)
let hd_quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then percentile p xs
  else
    let nf = float_of_int n in
    let alpha = p *. (nf +. 1.) and beta = (1. -. p) *. (nf +. 1.) in
    (* the log density at t = k / 2n, k = 0..2n *)
    let logd k =
      let t = float_of_int k /. (2. *. nf) in
      if t <= 0. || t >= 1. then neg_infinity
      else ((alpha -. 1.) *. log t) +. ((beta -. 1.) *. log (1. -. t))
    in
    let ld = Array.init ((2 * n) + 1) logd in
    let peak = Array.fold_left max neg_infinity ld in
    let d k = exp (ld.(k) -. peak) in
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun i x ->
        let w = d (2 * i) +. (4. *. d ((2 * i) + 1)) +. d ((2 * i) + 2) in
        num := !num +. (w *. x);
        den := !den +. w)
      a;
    !num /. !den

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

(* VmHWM (peak resident set) of a process (a pid or "self"), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error m -> failwith ("cannot read peak RSS: " ^ m)
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; JSON has no NaN or infinity. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
