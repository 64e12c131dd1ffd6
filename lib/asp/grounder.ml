type stats = { possible_atoms : int; ground_rules : int; fixpoint_rounds : int }

let errf fmt = Solver_error.ground_error fmt

(* ------------------------------------------------------------------ *)
(* Compiled patterns: variables resolved to dense per-rule slots.       *)
(* ------------------------------------------------------------------ *)

(* Rules are compiled once before grounding: every variable becomes an
   integer slot into the substitution array, so the inner join loops never
   touch variable names (the source name is kept for error messages only). *)
type cterm =
  | C_cst of Term.t
  | C_var of int * string  (** slot, source name *)
  | C_binop of Ast.binop * cterm * cterm
  | C_interval of cterm * cterm
  | C_fn of string * cterm list

type catom = { cpred : string; carity : int; cargs : cterm list }

type cx = { ctbl : (string, int) Hashtbl.t; mutable nvars : int }

let new_cx () = { ctbl = Hashtbl.create 16; nvars = 0 }

let slot cx v =
  match Hashtbl.find_opt cx.ctbl v with
  | Some i -> i
  | None ->
    let i = cx.nvars in
    cx.nvars <- i + 1;
    Hashtbl.add cx.ctbl v i;
    i

let rec compile_term cx = function
  | Ast.Cst c -> C_cst c
  | Ast.Var v -> C_var (slot cx v, v)
  | Ast.Binop (op, a, b) -> C_binop (op, compile_term cx a, compile_term cx b)
  | Ast.Interval (a, b) -> C_interval (compile_term cx a, compile_term cx b)
  | Ast.Fn (f, args) -> C_fn (f, List.map (compile_term cx) args)

let compile_atom cx (a : Ast.atom) =
  {
    cpred = a.Ast.pred;
    carity = List.length a.Ast.args;
    cargs = List.map (compile_term cx) a.Ast.args;
  }

let rec pp_cterm ppf = function
  | C_cst c -> Term.pp ppf c
  | C_var (_, v) -> Format.pp_print_string ppf v
  | C_binop (op, a, b) ->
    let op =
      match op with
      | Ast.Add -> "+"
      | Ast.Sub -> "-"
      | Ast.Mul -> "*"
      | Ast.Div -> "/"
      | Ast.Mod -> "\\"
    in
    Format.fprintf ppf "(%a%s%a)" pp_cterm a op pp_cterm b
  | C_interval (a, b) -> Format.fprintf ppf "%a..%a" pp_cterm a pp_cterm b
  | C_fn (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp_cterm)
      args

let pp_catom ppf a =
  match a.cargs with
  | [] -> Format.pp_print_string ppf a.cpred
  | _ ->
    Format.fprintf ppf "%s(%a)" a.cpred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp_cterm)
      a.cargs

(* ------------------------------------------------------------------ *)
(* Substitution environments with trailing for cheap undo.             *)
(* ------------------------------------------------------------------ *)

module Env = struct
  type t = { mutable slots : Term.t option array; trail : int Vec.t }

  let create () = { slots = Array.make 64 None; trail = Vec.create ~dummy:0 () }

  let ensure env n =
    if Array.length env.slots < n then begin
      let ns = Array.make (max n (2 * Array.length env.slots)) None in
      Array.blit env.slots 0 ns 0 (Array.length env.slots);
      env.slots <- ns
    end

  let mark env = Vec.length env.trail

  let undo env m =
    while Vec.length env.trail > m do
      env.slots.(Vec.pop env.trail) <- None
    done

  (* terms are interned, so the conflict check is pointer equality *)
  let bind env v t =
    match Array.unsafe_get env.slots v with
    | Some t' -> Term.equal t t'
    | None ->
      Array.unsafe_set env.slots v (Some t);
      Vec.push env.trail v;
      true

  let lookup env v = Array.unsafe_get env.slots v
end

(* Evaluate a term under an environment; [None] if a variable is unbound. *)
let rec eval env (t : cterm) : Term.t option =
  match t with
  | C_cst c -> Some c
  | C_var (v, _) -> Env.lookup env v
  | C_interval _ -> errf "intervals are only supported in fact arguments"
  | C_fn (f, args) ->
    let rec all acc = function
      | [] -> Some (List.rev acc)
      | t :: rest -> ( match eval env t with Some v -> all (v :: acc) rest | None -> None)
    in
    Option.map (fun vs -> Term.fun_ f vs) (all [] args)
  | C_binop (op, a, b) -> (
    match (eval env a, eval env b) with
    | Some { Term.node = Term.Int x; _ }, Some { Term.node = Term.Int y; _ } ->
      let r =
        match op with
        | Ast.Add -> x + y
        | Ast.Sub -> x - y
        | Ast.Mul -> x * y
        | Ast.Div ->
          if y = 0 then errf "division by zero in grounding" else x / y
        | Ast.Mod -> if y = 0 then errf "modulo by zero in grounding" else x mod y
      in
      Some (Term.int r)
    | Some a', Some b' ->
      errf "arithmetic on non-integer terms %a, %a" Term.pp a' Term.pp b'
    | _ -> None)

let eval_exn env ctx t =
  match eval env t with
  | Some v -> v
  | None -> errf "unsafe rule: unbound variable in %s (%a)" ctx pp_cterm t

(* Match pattern term [p] against ground value [v], extending [env]. *)
let rec match_term env (p : cterm) (v : Term.t) =
  match p with
  | C_cst c -> Term.equal c v
  | C_var (x, _) -> Env.bind env x v
  | C_fn (f, args) -> (
    match Term.node v with
    | Term.Fun (g, vals) ->
      String.equal f g
      && List.length args = List.length vals
      && List.for_all2 (fun p v -> match_term env p v) args vals
    | _ -> false)
  | C_binop _ | C_interval _ -> (
    match eval env p with Some pv -> Term.equal pv v | None -> false)

let match_atom env (pat : catom) (ga : Gatom.t) =
  List.for_all2 (fun p v -> match_term env p v) pat.cargs ga.Gatom.args

let eval_cmp c (a : Term.t) (b : Term.t) =
  let k = Term.compare a b in
  match c with
  | Ast.Eq -> k = 0
  | Ast.Ne -> k <> 0
  | Ast.Lt -> k < 0
  | Ast.Le -> k <= 0
  | Ast.Gt -> k > 0
  | Ast.Ge -> k >= 0

(* ------------------------------------------------------------------ *)
(* Compiled rules: bodies split by literal kind.                       *)
(* ------------------------------------------------------------------ *)

type split_body = {
  b_pos : catom array;
  b_cmps : (Ast.cmp * cterm * cterm) array;
  b_foralls : (catom * catom list) array;
  b_negs : catom array;
}

let split_body cx (body : Ast.body_lit list) =
  let pos = ref [] and cmps = ref [] and foralls = ref [] and negs = ref [] in
  List.iter
    (function
      | Ast.Pos a -> pos := compile_atom cx a :: !pos
      | Ast.Neg a -> negs := compile_atom cx a :: !negs
      | Ast.Cmp (c, x, y) -> cmps := (c, compile_term cx x, compile_term cx y) :: !cmps
      | Ast.Forall (a, conds) ->
        foralls := (compile_atom cx a, List.map (compile_atom cx) conds) :: !foralls)
    body;
  {
    b_pos = Array.of_list (List.rev !pos);
    b_cmps = Array.of_list (List.rev !cmps);
    b_foralls = Array.of_list (List.rev !foralls);
    b_negs = Array.of_list (List.rev !negs);
  }

(* Compiled choice element; [ce_bad] carries the rendering of a non-positive
   guard literal, reported (like the interpreter used to) only when the
   element is actually derived. *)
type celem = { ce_elem : catom; ce_guard : catom list; ce_bad : string option }

type chead =
  | C_none
  | C_atom of catom
  | C_choice of { c_lb : cterm option; c_ub : cterm option; c_elems : celem list }

type compiled = {
  c_head : chead;
  c_body : split_body;
  c_text : string;  (** for error messages and provenance *)
  c_line : int;  (** source line of the rule (0 when synthesized) *)
  c_nvars : int;
}

let compile_head cx = function
  | Ast.Head_none -> C_none
  | Ast.Head_atom a -> C_atom (compile_atom cx a)
  | Ast.Head_choice { lb; ub; elems } ->
    let celems =
      List.map
        (fun { Ast.elem; guard } ->
          let bad =
            List.find_map
              (function Ast.Pos _ -> None | l -> Some (Format.asprintf "%a" Ast.pp_body_lit l))
              guard
          in
          let conds =
            List.filter_map
              (function Ast.Pos a -> Some (compile_atom cx a) | _ -> None)
              guard
          in
          { ce_elem = compile_atom cx elem; ce_guard = conds; ce_bad = bad })
        elems
    in
    C_choice
      {
        c_lb = Option.map (compile_term cx) lb;
        c_ub = Option.map (compile_term cx) ub;
        c_elems = celems;
      }

(* ------------------------------------------------------------------ *)
(* The grounding state.                                                *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Gatom.Store.t;
  env : Env.t;
  idb : (string * int, unit) Hashtbl.t;  (** predicates with rule-defined heads *)
  budget : Budget.t;
}

let is_edb st (a : catom) = not (Hashtbl.mem st.idb (a.cpred, a.carity))

(* Candidate atom ids for a positive atom pattern under the current env.
   Picks the most selective index among argument positions whose pattern is
   already ground. *)
let candidates st (pat : catom) : int Vec.t =
  let best = ref None in
  List.iteri
    (fun pos p ->
      match eval st.env p with
      | Some v ->
        let c = Gatom.Store.by_pred_arg st.store pat.cpred pat.carity ~pos ~value:v in
        let n = Vec.length c in
        (match !best with
        | Some (m, _) when m <= n -> ()
        | _ -> best := Some (n, c))
      | None -> ())
    pat.cargs;
  match !best with
  | Some (_, c) -> c
  | None -> Gatom.Store.by_pred st.store pat.cpred pat.carity

(* Enumerate all substitutions satisfying the positive atoms and comparisons
   of [body] over the possible-atom store.  [delta] optionally restricts one
   positive literal (by index) to atoms with id >= the given bound, for
   semi-naive evaluation.  Calls [k] for each complete substitution with the
   matched positive atom ids (in literal order). *)
let enumerate st (body : split_body) ?delta (k : int array -> unit) =
  let npos = Array.length body.b_pos in
  let matched = Array.make npos (-1) in
  let done_pos = Array.make npos false in
  let cmps_left = ref (Array.to_list body.b_cmps) in
  (* Evaluate all comparisons that have become ground; false means prune. *)
  let rec check_cmps acc = function
    | [] ->
      cmps_left := List.rev acc;
      true
    | ((c, x, y) as cmp) :: rest -> (
      match (eval st.env x, eval st.env y) with
      | Some a, Some b ->
        if eval_cmp c a b then check_cmps acc rest else false
      | _ -> check_cmps (cmp :: acc) rest)
  in
  let rec go remaining =
    if remaining = 0 then begin
      (match !cmps_left with
      | [] -> ()
      | (_, x, y) :: _ ->
        ignore (eval_exn st.env "comparison" x);
        ignore (eval_exn st.env "comparison" y));
      k (Array.copy matched)
    end
    else begin
      (* The delta-restricted literal goes first when present (semi-naive:
         only a handful of atoms pass its id filter, so it is the most
         selective join start); otherwise choose the unprocessed literal
         with the fewest candidates. *)
      let i, cands =
        match delta with
        | Some (j, _) when not done_pos.(j) -> (j, candidates st body.b_pos.(j))
        | _ ->
          let best = ref (-1) and best_c = ref None and best_n = ref max_int in
          for i = 0 to npos - 1 do
            if not done_pos.(i) then begin
              let c = candidates st body.b_pos.(i) in
              let n = Vec.length c in
              if n < !best_n then begin
                best := i;
                best_c := Some c;
                best_n := n
              end
            end
          done;
          (!best, Option.get !best_c)
      in
      done_pos.(i) <- true;
      let lo = match delta with Some (j, lo) when j = i -> lo | _ -> 0 in
      Vec.iter
        (fun id ->
          if id >= lo then begin
            let m = Env.mark st.env in
            let saved_cmps = !cmps_left in
            if
              match_atom st.env body.b_pos.(i) (Gatom.Store.atom st.store id)
              && check_cmps [] !cmps_left
            then begin
              matched.(i) <- id;
              go (remaining - 1)
            end;
            cmps_left := saved_cmps;
            Env.undo st.env m
          end)
        cands;
      done_pos.(i) <- false
    end
  in
  let m = Env.mark st.env in
  let saved = !cmps_left in
  if check_cmps [] !cmps_left then go npos;
  cmps_left := saved;
  Env.undo st.env m

(* Enumerate EDB-guard matches: used for Forall conditions and choice-element
   guards.  The guard is a conjunction of atoms over EDB predicates; local
   variables are bound during enumeration.  Calls [k] once per match. *)
let enumerate_guard st (conds : catom list) rule_text (k : unit -> unit) =
  List.iter
    (fun c ->
      if not (is_edb st c) then
        errf "condition %a in %s must range over fact-only predicates" pp_catom c
          rule_text)
    conds;
  let rec go = function
    | [] -> k ()
    | c :: rest ->
      let cands = candidates st c in
      Vec.iter
        (fun id ->
          if Gatom.Store.is_fact st.store id then begin
            let m = Env.mark st.env in
            if match_atom st.env c (Gatom.Store.atom st.store id) then go rest;
            Env.undo st.env m
          end)
        cands
    in
  go conds

let ground_atom st ctx (a : catom) : Gatom.t =
  Gatom.make a.cpred (List.map (fun t -> eval_exn st.env ctx t) a.cargs)

(* ------------------------------------------------------------------ *)
(* Phase 1: possible-atom closure.                                     *)
(* ------------------------------------------------------------------ *)

(* Derive all head atoms of [rule] for the current substitution into the
   store (optimistic w.r.t. negation and Forall targets). *)
let derive_heads st (rule : compiled) =
  Budget.tick_instance st.budget;
  match rule.c_head with
  | C_none -> ()
  | C_atom a ->
    ignore (Gatom.Store.intern st.store (ground_atom st rule.c_text a))
  | C_choice { c_elems; _ } ->
    List.iter
      (fun { ce_elem; ce_guard; ce_bad } ->
        (match ce_bad with
        | Some l ->
          errf "choice guard %s in %s must be a positive atom" l rule.c_text
        | None -> ());
        enumerate_guard st ce_guard rule.c_text (fun () ->
            ignore (Gatom.Store.intern st.store (ground_atom st rule.c_text ce_elem))))
      c_elems

let possible_closure st (rules : compiled list) =
  let nfacts = Gatom.Store.count st.store in
  (* round 0: full evaluation over the facts *)
  List.iter (fun r -> enumerate st r.c_body (fun _ -> derive_heads st r)) rules;
  let rounds = ref 1 in
  (* semi-naive rounds: some positive literal must match an atom added since
     the previous round *)
  let frontier = ref nfacts in
  while !frontier < Gatom.Store.count st.store do
    incr rounds;
    let lo = !frontier in
    frontier := Gatom.Store.count st.store;
    List.iter
      (fun r ->
        let npos = Array.length r.c_body.b_pos in
        for i = 0 to npos - 1 do
          enumerate st r.c_body ~delta:(i, lo) (fun _ -> derive_heads st r)
        done)
      rules
  done;
  !rounds

(* ------------------------------------------------------------------ *)
(* Phase 2: emitting simplified ground rules.                          *)
(* ------------------------------------------------------------------ *)

exception Drop_instance

(* Resolve the full body of a rule instance to (pos, neg) atom-id arrays.
   [matched] are the ids matched for positive literals.  Facts are removed;
   impossible positive atoms (from Forall expansion) or negated facts drop
   the whole instance. *)
let resolve_body st (body : split_body) (matched : int array) : Ground.body =
  let pos = ref [] and neg = ref [] in
  let add_pos id = if not (Gatom.Store.is_fact st.store id) then pos := id :: !pos in
  Array.iter add_pos matched;
  Array.iter
    (fun (target, conds) ->
      enumerate_guard st conds "conditional literal" (fun () ->
          let ga = ground_atom st "conditional literal" target in
          match Gatom.Store.find st.store ga with
          | Some id -> add_pos id
          | None -> raise Drop_instance))
    body.b_foralls;
  Array.iter
    (fun a ->
      let ga = ground_atom st "negative literal" a in
      match Gatom.Store.find st.store ga with
      | None -> () (* impossible atom: [not a] trivially true *)
      | Some id -> if Gatom.Store.is_fact st.store id then raise Drop_instance else neg := id :: !neg)
    body.b_negs;
  let dedup l = List.sort_uniq Int.compare l in
  { Ground.pos = Array.of_list (dedup !pos); neg = Array.of_list (dedup !neg) }

let bound_value st rule_text = function
  | None -> None
  | Some t -> (
    match eval_exn st.env ("cardinality bound of " ^ rule_text) t with
    | { Term.node = Term.Int n; _ } -> Some n
    | t -> errf "cardinality bound %a in %s is not an integer" Term.pp t rule_text)

(* Compiled minimize element: weight/priority/tuple plus its guard body. *)
type cmin = {
  cm_weight : cterm;
  cm_priority : cterm;
  cm_tuple : cterm list;
  cm_body : split_body;
  cm_nvars : int;
}

let compile_min_elem ({ Ast.weight; priority; tuple; guard } : Ast.min_elem) =
  let cx = new_cx () in
  let cm_body = split_body cx guard in
  {
    cm_weight = compile_term cx weight;
    cm_priority = compile_term cx priority;
    cm_tuple = List.map (compile_term cx) tuple;
    cm_body;
    cm_nvars = cx.nvars;
  }

(* Emit one rule instance.  The environment must hold the instance's
   substitution (the enumerate callback provides it). *)
let emit_rule_instance st (out : Ground.t) (r : compiled) (matched : int array) =
  Budget.tick_instance st.budget;
  (* [matched] is a fresh array per instance: retain it as the
     pre-simplification positive body for provenance *)
  let origin = { Ground.o_line = r.c_line; o_text = r.c_text; o_pos = matched } in
  let put rule = Ground.push_rule out rule origin in
  let conflict () =
    out.Ground.inconsistent <- true;
    Vec.push out.Ground.conflicts0 origin
  in
  match resolve_body st r.c_body matched with
  | exception Drop_instance -> ()
  | body -> (
    match r.c_head with
    | C_none ->
      if Ground.body_size body = 0 then conflict () else put (Ground.Rconstraint body)
    | C_atom a ->
      let ga = ground_atom st r.c_text a in
      let id = Gatom.Store.intern st.store ga in
      if Gatom.Store.is_fact st.store id then ()
      else if Ground.body_size body = 0 then Gatom.Store.mark_fact st.store id
      else put (Ground.Rnormal (id, body))
    | C_choice { c_lb; c_ub; c_elems } ->
      let lb = bound_value st r.c_text c_lb in
      let ub = bound_value st r.c_text c_ub in
      let heads = ref [] in
      List.iter
        (fun { ce_elem; ce_guard; ce_bad = _ } ->
          enumerate_guard st ce_guard r.c_text (fun () ->
              heads := Gatom.Store.intern st.store (ground_atom st r.c_text ce_elem) :: !heads))
        c_elems;
      let heads = Array.of_list (List.sort_uniq Int.compare !heads) in
      if Array.length heads = 0 then begin
        match lb with
        | Some n when n > 0 ->
          if Ground.body_size body = 0 then conflict () else put (Ground.Rconstraint body)
        | _ -> ()
      end
      else put (Ground.Rchoice { lb; ub; heads; cbody = body }))

let emit_min_instance st (out : Ground.t) (mn : cmin) (matched : int array) =
  Budget.tick_instance st.budget;
  match resolve_body st mn.cm_body matched with
  | exception Drop_instance -> ()
  | mbody ->
    let w =
      match eval_exn st.env "minimize weight" mn.cm_weight with
      | { Term.node = Term.Int n; _ } -> n
      | t -> errf "minimize weight %a is not an integer" Term.pp t
    in
    let p =
      match eval_exn st.env "minimize priority" mn.cm_priority with
      | { Term.node = Term.Int n; _ } -> n
      | t -> errf "minimize priority %a is not an integer" Term.pp t
    in
    let tup = List.map (fun t -> eval_exn st.env "minimize tuple" t) mn.cm_tuple in
    Vec.push out.Ground.minimize { Ground.mweight = w; mpriority = p; mtuple = tup; mbody }

(* Emission pass over the closure. *)
let emit_all st (out : Ground.t) (rules : compiled list) (mins : cmin list list) =
  List.iter
    (fun r -> enumerate st r.c_body (fun matched -> emit_rule_instance st out r matched))
    rules;
  List.iter
    (fun group ->
      List.iter
        (fun m ->
          Env.ensure st.env m.cm_nvars;
          enumerate st m.cm_body (fun matched -> emit_min_instance st out m matched))
        group)
    mins

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

(* Safety runs on the source rule (variable names are needed for messages)
   before compilation to slots. *)
let check_safety text (head : Ast.head) (body : Ast.body_lit list) =
  let bound =
    List.concat_map
      (function Ast.Pos a -> Ast.atom_vars a | _ -> [])
      body
  in
  let bound = List.sort_uniq String.compare bound in
  let is_bound v = List.mem v bound in
  let check_vars ctx vars =
    List.iter
      (fun v ->
        if not (is_bound v) then
          errf "unsafe rule %s: variable %s in %s not bound by a positive body literal"
            text v ctx)
      vars
  in
  List.iter
    (function
      | Ast.Neg a -> check_vars "negative literal" (Ast.atom_vars a)
      | _ -> ())
    body;
  (* head variables must be bound, except choice-element locals bound by guards *)
  match head with
  | Ast.Head_none -> ()
  | Ast.Head_atom a -> check_vars "rule head" (Ast.atom_vars a)
  | Ast.Head_choice { elems; _ } ->
    List.iter
      (fun { Ast.elem; guard } ->
        let guard_vars =
          List.concat_map
            (function Ast.Pos a -> Ast.atom_vars a | _ -> [])
            guard
        in
        List.iter
          (fun v ->
            if not (is_bound v || List.mem v guard_vars) then
              errf
                "unsafe rule %s: choice variable %s bound neither by the body nor by \
                 its guard"
                text v)
          (Ast.atom_vars elem))
      elems

(* Evaluate a ground (variable-free) fact argument. *)
let eval_ground_arg t =
  let cx = new_cx () in
  let ct = compile_term cx t in
  eval (Env.create ()) ct

(* Seed one already-ground atom as a fact.  This is the streaming fact
   fast path: producers (reuse-fact generation at E4S scale) hand atoms
   straight to the interned store, with no Ast statement or per-spec atom
   list in between, and re-seeding an existing fact is a no-op. *)
let seed_ground_atom store (ga : Gatom.t) =
  Gatom.Store.mark_fact store (Gatom.Store.intern store ga)

(* Seed a ground fact statement into the store, expanding interval
   arguments into their cartesian product. *)
let seed_fact store (a : Ast.atom) =
  let rec arg_values = function
    | Ast.Cst c -> [ c ]
    | Ast.Interval (lo, hi) -> (
      let ev t =
        match t with
        | Ast.Cst { Term.node = Term.Int i; _ } -> i
        | Ast.Cst c -> errf "interval bound %a is not an integer" Term.pp c
        | t -> errf "interval bound %a is not ground" Ast.pp_term t
      in
      let lo = ev lo and hi = ev hi in
      if lo > hi then []
      else List.init (hi - lo + 1) (fun k -> Term.int (lo + k)))
    | (Ast.Binop _ | Ast.Fn _) as t -> (
      match eval_ground_arg t with
      | Some c -> [ c ]
      | None -> errf "non-ground fact argument %a" Ast.pp_term t)
    | Ast.Var _ as t -> errf "non-ground fact argument %a" Ast.pp_term t
  and expand = function
    | [] -> [ [] ]
    | t :: rest ->
      let tails = expand rest in
      List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) (arg_values t)
  in
  List.iter
    (fun args -> seed_ground_atom store (Gatom.make a.Ast.pred args))
    (expand a.Ast.args)

let ground ?(budget = Budget.unlimited) ?facts_stream (prog : Ast.program) :
    Ground.t * stats =
  Budget.enter budget Budget.Ground;
  let store = Gatom.Store.create () in
  let st = { store; env = Env.create (); idb = Hashtbl.create 64; budget } in
  let rules = ref [] and minimizes = ref [] in
  (* Seed facts; collect rules and classify IDB predicates. *)
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Show _ -> ()
      | Ast.Minimize elems -> minimizes := List.map compile_min_elem elems :: !minimizes
      | Ast.Rule ({ head; body; _ } as r) ->
        if Ast.statement_is_fact stmt then begin
          match head with
          | Ast.Head_atom a -> seed_fact store a
          | _ -> assert false
        end
        else begin
          List.iter
            (fun (a : Ast.atom) ->
              Hashtbl.replace st.idb (a.Ast.pred, List.length a.Ast.args) ())
            (Ast.head_atoms head);
          let text = Format.asprintf "%a" Ast.pp_statement (Ast.Rule r) in
          check_safety text head body;
          let cx = new_cx () in
          let c_head = compile_head cx head in
          let c_body = split_body cx body in
          rules :=
            { c_head; c_body; c_text = text; c_line = r.Ast.line; c_nvars = cx.nvars }
            :: !rules
        end)
    prog;
  (* Streamed facts are seeded after the statement facts, which is where
     a materialized producer appends them — atom interning order (and so
     every downstream id) is identical on both paths. *)
  (match facts_stream with
  | Some stream -> stream (fun ga -> seed_ground_atom store ga)
  | None -> ());
  let rules = List.rev !rules in
  let mins = List.rev !minimizes in
  Env.ensure st.env (List.fold_left (fun m r -> max m r.c_nvars) 0 rules);
  let rounds = possible_closure st rules in
  let out = Ground.create store in
  emit_all st out rules mins;
  ( out,
    {
      possible_atoms = Gatom.Store.count store;
      ground_rules = Ground.num_rules out;
      fixpoint_rounds = rounds;
    } )
