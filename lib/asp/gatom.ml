type t = { pred : string; args : Term.t list }

(* Terms are hash-consed, so argument comparison is pointer equality and
   [Term.hash] is a field read: both operations are O(arity) with no
   recursion into term structure. *)
let equal a b =
  a == b || (String.equal a.pred b.pred && List.equal Term.equal a.args b.args)

let hash a =
  List.fold_left (fun acc t -> (acc * 31) + Term.hash t) (Hashtbl.hash a.pred) a.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let pp ppf a =
  match a.args with
  | [] -> Format.pp_print_string ppf a.pred
  | _ ->
    Format.fprintf ppf "%s(%a)" a.pred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Term.pp)
      a.args

let make pred args = { pred; args }

module Store = struct
  type atom = t

  module H = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  type key = { kpred : string; karity : int; kpos : int; kvalue : Term.t }

  module K = Hashtbl.Make (struct
    type t = key

    let equal a b =
      a.karity = b.karity && a.kpos = b.kpos
      && Term.equal a.kvalue b.kvalue
      && String.equal a.kpred b.kpred

    (* id-based, non-allocating: the interned term id discriminates values *)
    let hash k =
      (((((Hashtbl.hash k.kpred * 31) + k.karity) * 31) + k.kpos) * 31)
      + Term.id k.kvalue
  end)

  type t = {
    ids : int H.t;
    atoms : atom Vec.t;
    facts : bool Vec.t;
    preds : (string * int, int Vec.t) Hashtbl.t;
    index : int Vec.t K.t;
    empty : int Vec.t;  (** shared empty vector for misses *)
  }

  let create () =
    {
      ids = H.create 4096;
      atoms = Vec.create ~dummy:{ pred = ""; args = [] } ();
      facts = Vec.create ~dummy:false ();
      preds = Hashtbl.create 256;
      index = K.create 4096;
      empty = Vec.create ~capacity:1 ~dummy:0 ();
    }

  let count st = Vec.length st.atoms

  let intern st a =
    match H.find_opt st.ids a with
    | Some id -> id
    | None ->
      let id = Vec.length st.atoms in
      H.add st.ids a id;
      Vec.push st.atoms a;
      Vec.push st.facts false;
      let arity = List.length a.args in
      let pk = (a.pred, arity) in
      (match Hashtbl.find_opt st.preds pk with
      | Some v -> Vec.push v id
      | None ->
        let v = Vec.create ~dummy:0 () in
        Vec.push v id;
        Hashtbl.add st.preds pk v);
      List.iteri
        (fun kpos value ->
          let k = { kpred = a.pred; karity = arity; kpos; kvalue = value } in
          match K.find_opt st.index k with
          | Some v -> Vec.push v id
          | None ->
            let v = Vec.create ~dummy:0 () in
            Vec.push v id;
            K.add st.index k v)
        a.args;
      id

  let find st a = H.find_opt st.ids a
  let atom st id = Vec.get st.atoms id
  let mark_fact st id = Vec.set st.facts id true
  let is_fact st id = Vec.get st.facts id

  let by_pred st p a =
    match Hashtbl.find_opt st.preds (p, a) with Some v -> v | None -> st.empty

  let by_pred_arg st p a ~pos ~value =
    match K.find_opt st.index { kpred = p; karity = a; kpos = pos; kvalue = value } with
    | Some v -> v
    | None -> st.empty
end
