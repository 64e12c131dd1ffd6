type env = {
  compilers : Specs.Compiler.t list;
  oses : Specs.Os.t list;
  target_family : string;
}

let default_env =
  { compilers = Specs.Compiler.default_roster; oses = Specs.Os.known; target_family = "x86_64" }

type reuse_mode = [ `Stream | `Materialize ]

type t = {
  statements : Asp.Ast.statement list;
  n_facts : int;
  possible : string list;
  conflict_msgs : (int * string) list;
  cond_origins : (int * string) list;
  reuse_stream : ((Asp.Gatom.t -> unit) -> unit) option;
}

exception Unknown_package of string

let str s = Asp.Term.str s
let int i = Asp.Term.int i

(* Shared fact-generation core: statement accumulation plus the
   condition-id/provenance bookkeeping every frontend needs to target the
   generalized-condition fragment (Logic_program.conditions_fragment).
   The Spack generator below drives it through thin wrappers; the CUDF
   frontend (Cudf.Encode) drives it directly. *)
module Gen = struct
  type t = {
    mutable stmts : Asp.Ast.statement list;  (* newest first *)
    mutable count : int;
    mutable next_id : int;
    mutable origins : (int * string) list;  (* newest first *)
  }

  let create ?(first_id = 1) () =
    { stmts = []; count = 0; next_id = first_id; origins = [] }

  let fact t p args =
    t.stmts <- Asp.Ast.fact p args :: t.stmts;
    t.count <- t.count + 1

  (* streamed facts bypass [stmts] but still count toward [n_facts] *)
  let bump t n = t.count <- t.count + n

  let new_condition t =
    let id = t.next_id in
    t.next_id <- id + 1;
    fact t "condition" [ Asp.Term.int id ];
    id

  let describe t id desc = t.origins <- (id, desc) :: t.origins

  let require t id n args =
    fact t "condition_requirement" (Asp.Term.int id :: Asp.Term.str n :: args)

  let impose t id n args =
    fact t "imposed_constraint" (Asp.Term.int id :: Asp.Term.str n :: args)

  let statements t = List.rev t.stmts
  let n_facts t = t.count
  let origins t = t.origins
end

(* Mutable generation state. *)
type gen = {
  repo : Pkg.Repo.t;
  genv : env;
  prefs : Preferences.t;
  core : Gen.t;
  mutable msgs : (int * string) list;
  (* (package, version-constraint) pairs needing enumeration *)
  version_sites : (string * string, unit) Hashtbl.t;
  (* (compiler-name, version-constraint) pairs *)
  compiler_sites : (string * string, unit) Hashtbl.t;
  (* target constraint strings *)
  target_sites : (string, unit) Hashtbl.t;
  (* extra values discovered in constraints / installed records *)
  extra_targets : (string, unit) Hashtbl.t;
  extra_oses : (string, unit) Hashtbl.t;
  extra_compilers : (Specs.Compiler.t, unit) Hashtbl.t;
  extra_versions : (string, Specs.Version.t list ref) Hashtbl.t;
  extra_variant_values : (string * string, string list ref) Hashtbl.t;
}

let fact g p args = Gen.fact g.core p args
let new_condition g = Gen.new_condition g.core

(* Human-readable provenance of a condition, recovered by
   [Diagnose.explain_core] when the condition id turns up in an unsat
   core. *)
let describe_condition g id desc = Gen.describe g.core id desc

let when_suffix = function
  | None -> ""
  | Some (w : Specs.Spec.abstract) ->
    " when " ^ Specs.Spec.abstract_to_string w

let is_virtual g name = Pkg.Repo.is_virtual g.repo name

let add_version_site g pkg con =
  if is_virtual g pkg then
    List.iter
      (fun p -> Hashtbl.replace g.version_sites (p, con) ())
      (Pkg.Repo.providers g.repo pkg)
  else Hashtbl.replace g.version_sites (pkg, con) ()

let effective_providers g virt = Preferences.provider_order g.prefs g.repo virt

let target_is_family_constraint c = String.length c > 0 && c.[String.length c - 1] = ':'

(* --- requirements of a condition ------------------------------------- *)

let req3 g id n a = fact g "condition_requirement" [ int id; str n; str a ]
let req4 g id n a b = fact g "condition_requirement" [ int id; str n; str a; str b ]

let req5 g id n a b c =
  fact g "condition_requirement" [ int id; str n; str a; str b; str c ]

(* Node-level constraints as *requirements* on [name]. *)
let emit_node_requirements g id name (cn : Specs.Spec.constraint_node) =
  (match cn.Specs.Spec.cversion with
  | Some r ->
    let con = Specs.Vrange.to_string r in
    if is_virtual g name then begin
      req4 g id "provider_version_satisfies" name con;
      add_version_site g name con
    end
    else begin
      req4 g id "version_satisfies" name con;
      add_version_site g name con
    end
  | None -> ());
  List.iter (fun (var, value) -> req5 g id "variant_value" name var value) cn.Specs.Spec.cvariants;
  (match cn.Specs.Spec.ccompiler with
  | Some c ->
    req4 g id "node_compiler" name c;
    (match cn.Specs.Spec.ccompiler_version with
    | Some r ->
      let con = Specs.Vrange.to_string r in
      req5 g id "node_compiler_version_satisfies" name c con;
      Hashtbl.replace g.compiler_sites (c, con) ()
    | None -> ())
  | None -> ());
  List.iter (fun (f, v) -> req5 g id "node_flags" name f v) cn.Specs.Spec.cflags;
  (match cn.Specs.Spec.cos with Some o -> req4 g id "node_os" name o | None -> ());
  match cn.Specs.Spec.ctarget with
  | Some t ->
    if target_is_family_constraint t then begin
      req4 g id "node_target_satisfies" name t;
      Hashtbl.replace g.target_sites t ()
    end
    else begin
      req4 g id "node_target" name t;
      Hashtbl.replace g.extra_targets t ()
    end
  | None -> ()

(* A when-condition: requirements on the package itself plus on other DAG
   nodes (the ^dep part, Section V-B.3). *)
let emit_when_requirements g id self (w : Specs.Spec.abstract) =
  if not (String.equal w.Specs.Spec.aroot.Specs.Spec.cname self) then
    invalid_arg "when-condition root must constrain the package itself";
  emit_node_requirements g id self w.Specs.Spec.aroot;
  List.iter
    (fun (d : Specs.Spec.constraint_node) ->
      let dname = d.Specs.Spec.cname in
      if is_virtual g dname then req3 g id "virtual_on" dname
      else req3 g id "node" dname;
      emit_node_requirements g id dname d)
    w.Specs.Spec.adeps

(* --- imposed constraints of a condition ------------------------------- *)

let imp3 g id n a = fact g "imposed_constraint" [ int id; str n; str a ]
let imp4 g id n a b = fact g "imposed_constraint" [ int id; str n; str a; str b ]

let imp5 g id n a b c =
  fact g "imposed_constraint" [ int id; str n; str a; str b; str c ]

(* Node-level constraints *imposed* on [name] when the condition holds. *)
let emit_imposed g id name (cn : Specs.Spec.constraint_node) =
  let virt = is_virtual g name in
  (match cn.Specs.Spec.cversion with
  | Some r ->
    let con = Specs.Vrange.to_string r in
    add_version_site g name con;
    if virt then imp4 g id "provider_version_satisfies" name con
    else imp4 g id "version_satisfies" name con
  | None -> ());
  List.iter
    (fun (var, value) ->
      if virt then imp5 g id "provider_variant_set" name var value
      else imp5 g id "variant_set" name var value)
    cn.Specs.Spec.cvariants;
  (match cn.Specs.Spec.ccompiler with
  | Some c ->
    imp4 g id "node_compiler_set" name c;
    (match cn.Specs.Spec.ccompiler_version with
    | Some r ->
      let con = Specs.Vrange.to_string r in
      imp5 g id "node_compiler_version_satisfies" name c con;
      Hashtbl.replace g.compiler_sites (c, con) ()
    | None -> ())
  | None -> ());
  List.iter (fun (f, v) -> imp5 g id "node_flags_set" name f v) cn.Specs.Spec.cflags;
  (match cn.Specs.Spec.cos with
  | Some o ->
    imp4 g id "node_os_set" name o;
    Hashtbl.replace g.extra_oses o ()
  | None -> ());
  match cn.Specs.Spec.ctarget with
  | Some t ->
    if target_is_family_constraint t then begin
      imp4 g id "node_target_satisfies" name t;
      Hashtbl.replace g.target_sites t ()
    end
    else begin
      imp4 g id "node_target_set" name t;
      Hashtbl.replace g.extra_targets t ()
    end
  | None -> ()

(* --- per-package metadata ---------------------------------------------- *)

let emit_package g (p : Pkg.Package.t) =
  let name = p.Pkg.Package.name in
  (* dependencies as generalized conditions *)
  List.iter
    (fun (d : Pkg.Package.dependency) ->
      let id = new_condition g in
      req3 g id "node" name;
      (match d.Pkg.Package.dep_when with
      | Some w -> emit_when_requirements g id name w
      | None -> ());
      let dname = d.Pkg.Package.dep_spec.Specs.Spec.cname in
      fact g "dependency_condition" [ int id; str name; str dname ];
      describe_condition g id
        (Printf.sprintf "%s depends on %s%s" name
           (Specs.Spec.node_to_string d.Pkg.Package.dep_spec)
           (when_suffix d.Pkg.Package.dep_when));
      emit_imposed g id dname d.Pkg.Package.dep_spec)
    p.Pkg.Package.dependencies;
  (* conflicts: conditions that must not hold *)
  List.iter
    (fun (c : Pkg.Package.conflict_decl) ->
      let id = new_condition g in
      req3 g id "node" name;
      emit_node_requirements g id name c.Pkg.Package.conflict_spec;
      (match c.Pkg.Package.conflict_when with
      | Some w -> emit_when_requirements g id name w
      | None -> ());
      fact g "conflict" [ int id; str name ];
      describe_condition g id
        (Printf.sprintf "%s conflicts with %s%s%s" name
           (Specs.Spec.node_to_string c.Pkg.Package.conflict_spec)
           (when_suffix c.Pkg.Package.conflict_when)
           (if c.Pkg.Package.conflict_msg = "" then ""
            else ": " ^ c.Pkg.Package.conflict_msg));
      g.msgs <- (id, c.Pkg.Package.conflict_msg) :: g.msgs)
    p.Pkg.Package.conflicts;
  (* provides *)
  List.iter
    (fun (pr : Pkg.Package.provide) ->
      let id = new_condition g in
      req3 g id "node" name;
      (match pr.Pkg.Package.prov_when with
      | Some w -> emit_when_requirements g id name w
      | None -> ());
      fact g "provider_condition" [ int id; str name; str pr.Pkg.Package.prov_virtual ];
      describe_condition g id
        (Printf.sprintf "%s provides %s%s" name pr.Pkg.Package.prov_virtual
           (when_suffix pr.Pkg.Package.prov_when)))
    p.Pkg.Package.provides;
  (* variants (preferences may override the recipe's defaults) *)
  List.iter
    (fun (v : Pkg.Package.variant_decl) ->
      fact g "variant" [ str name; str v.Pkg.Package.var_name ];
      fact g "variant_default"
        [
          str name;
          str v.Pkg.Package.var_name;
          str (Preferences.preferred_variant_default g.prefs name v);
        ];
      let extra =
        match Hashtbl.find_opt g.extra_variant_values (name, v.Pkg.Package.var_name) with
        | Some r -> !r
        | None -> []
      in
      List.iter
        (fun value ->
          fact g "variant_possible_value" [ str name; str v.Pkg.Package.var_name; str value ])
        (List.sort_uniq compare (v.Pkg.Package.var_values @ extra)))
    p.Pkg.Package.variants

(* Version pool of a package: declared versions (by weight) plus installed
   extras appended with worse weights. *)
let version_pool g (p : Pkg.Package.t) =
  let declared = Pkg.Package.declared_versions p in
  let extras =
    match Hashtbl.find_opt g.extra_versions p.Pkg.Package.name with
    | Some r ->
      List.filter
        (fun v ->
          not
            (List.exists
               (fun (d : Pkg.Package.version_decl) ->
                 Specs.Version.equal d.Pkg.Package.vversion v)
               declared))
        (List.sort_uniq Specs.Version.compare !r)
    | None -> []
  in
  let base = List.length declared in
  List.map
    (fun (d : Pkg.Package.version_decl) ->
      (d.Pkg.Package.vversion, d.Pkg.Package.vweight, d.Pkg.Package.vdeprecated))
    declared
  @ List.mapi (fun i v -> (v, base + i, false)) extras
  |> Preferences.version_pool g.prefs p.Pkg.Package.name

let emit_versions g (p : Pkg.Package.t) =
  let name = p.Pkg.Package.name in
  List.iter
    (fun (v, w, deprecated) ->
      fact g "version_declared" [ str name; str (Specs.Version.to_string v); int w ];
      if deprecated then
        fact g "deprecated_version" [ str name; str (Specs.Version.to_string v) ])
    (version_pool g p)

(* --- environment facts -------------------------------------------------- *)

let emit_environment g =
  (* compilers *)
  let roster =
    g.genv.compilers
    @ (Hashtbl.fold (fun c () acc -> c :: acc) g.extra_compilers []
      |> List.filter (fun c -> not (List.exists (Specs.Compiler.equal c) g.genv.compilers))
      |> List.sort Specs.Compiler.compare)
  in
  List.iteri
    (fun i (c : Specs.Compiler.t) ->
      let cv = Specs.Version.to_string c.Specs.Compiler.version in
      fact g "compiler" [ str c.Specs.Compiler.name; str cv ];
      fact g "compiler_weight" [ str c.Specs.Compiler.name; str cv; int i ])
    roster;
  (* OSes *)
  let oses =
    g.genv.oses
    @ (Hashtbl.fold (fun o () acc -> o :: acc) g.extra_oses []
      |> List.filter (fun o -> not (List.mem o g.genv.oses))
      |> List.sort compare)
  in
  List.iteri
    (fun i o ->
      fact g "os" [ str o ];
      fact g "os_weight" [ str o; int i ])
    oses;
  (* targets: the host family plus any explicitly named foreign targets *)
  let family_targets = Specs.Target.family_members g.genv.target_family in
  let extra =
    Hashtbl.fold (fun t () acc -> t :: acc) g.extra_targets []
    |> List.filter_map (fun t ->
           match Specs.Target.find t with
           | Some tt
             when not
                    (List.exists
                       (fun (x : Specs.Target.t) -> String.equal x.Specs.Target.name t)
                       family_targets) ->
             Some tt
           | _ -> None)
    |> List.sort_uniq compare
  in
  let targets = family_targets @ extra in
  List.iter
    (fun (t : Specs.Target.t) ->
      fact g "target" [ str t.Specs.Target.name ];
      fact g "target_weight" [ str t.Specs.Target.name; int (Specs.Target.weight t) ])
    targets;
  (* compiler-target support *)
  List.iter
    (fun (c : Specs.Compiler.t) ->
      let cv = Specs.Version.to_string c.Specs.Compiler.version in
      List.iter
        (fun (t : Specs.Target.t) ->
          if Specs.Compiler.supports_target c t then
            fact g "compiler_supports_target"
              [ str c.Specs.Compiler.name; str cv; str t.Specs.Target.name ])
        targets)
    roster;
  (* target constraint enumerations *)
  Hashtbl.iter
    (fun con () ->
      let family = String.sub con 0 (String.length con - 1) in
      List.iter
        (fun (t : Specs.Target.t) ->
          if Specs.Target.is_descendant_of t family then
            fact g "target_satisfies" [ str con; str t.Specs.Target.name ])
        targets)
    g.target_sites;
  (* compiler version-constraint enumerations *)
  Hashtbl.iter
    (fun (cname, con) () ->
      let r = Specs.Vrange.of_string con in
      List.iter
        (fun (c : Specs.Compiler.t) ->
          if
            String.equal c.Specs.Compiler.name cname
            && Specs.Vrange.satisfies r c.Specs.Compiler.version
          then
            fact g "compiler_version_satisfies"
              [ str cname; str con; str (Specs.Version.to_string c.Specs.Compiler.version) ])
        roster)
    g.compiler_sites

(* --- installed database -------------------------------------------------- *)

module D = Pkg.Database

(* Slots eligible for reuse: package in the closure and the whole
   dependency sub-DAG eligible too.  Works entirely on packed ids — no
   record is materialized — and returns slots in insertion order, so
   both the streamed and the materialized path emit facts in the same
   canonical order. *)
let eligible_slots db closure =
  let slot_of_hash_id = Hashtbl.create 256 in
  D.iter_slots db (fun s -> Hashtbl.replace slot_of_hash_id (D.p_hash db s) s);
  let keep = Hashtbl.create 256 in
  D.iter_slots db (fun s ->
      if Hashtbl.mem closure (D.str_of_id db (D.p_name db s)) then
        Hashtbl.replace keep s ());
  let changed = ref true in
  while !changed do
    changed := false;
    let drop = ref [] in
    Hashtbl.iter
      (fun s () ->
        let ok = ref true in
        D.iter_deps db s (fun _ dh ->
            if !ok then
              match Hashtbl.find_opt slot_of_hash_id dh with
              | Some d when Hashtbl.mem keep d -> ()
              | _ -> ok := false);
        if not !ok then drop := s :: !drop)
      keep;
    if !drop <> [] then begin
      changed := true;
      List.iter (Hashtbl.remove keep) !drop
    end
  done;
  let out = ref [] in
  D.iter_slots db (fun s -> if Hashtbl.mem keep s then out := s :: !out);
  List.rev !out

let note_installed_values g db slot =
  let name = D.str_of_id db (D.p_name db slot) in
  let version = D.version_of_id db (D.p_version db slot) in
  (match Hashtbl.find_opt g.extra_versions name with
  | Some l -> l := version :: !l
  | None -> Hashtbl.replace g.extra_versions name (ref [ version ]));
  D.iter_variants db slot (fun var value ->
      let key = (name, D.str_of_id db var) in
      let value = D.str_of_id db value in
      match Hashtbl.find_opt g.extra_variant_values key with
      | Some l -> l := value :: !l
      | None -> Hashtbl.replace g.extra_variant_values key (ref [ value ]));
  Hashtbl.replace g.extra_compilers
    {
      Specs.Compiler.name = D.str_of_id db (D.p_compiler_name db slot);
      version = D.version_of_id db (D.p_compiler_version db slot);
    }
    ();
  Hashtbl.replace g.extra_oses (D.str_of_id db (D.p_os db slot)) ()

(* Pool-id -> hash-consed term, memoized per generation: at E4S scale the
   63k records share a few thousand distinct strings, so every term is
   built once and reused by array index. *)
let term_memo db =
  let memo = Array.make (max 1 (D.pool_size db)) None in
  fun i ->
    match memo.(i) with
    | Some t -> t
    | None ->
      let t = Asp.Term.str (D.str_of_id db i) in
      memo.(i) <- Some t;
      t

(* One installed record's reuse facts, handed to [emit] as ground atoms:
   [installed_hash(name, hash)] plus the hash-keyed constraints and
   [hash_dep] edges (Section VI).  Shared verbatim by the materialized
   path (emit = append a fact statement) and the streaming path (emit =
   seed straight into the grounder's store). *)
let emit_installed_atoms ts db slot emit =
  let name = ts (D.p_name db slot) and h = ts (D.p_hash db slot) in
  emit (Asp.Gatom.make "installed_hash" [ name; h ]);
  let hc args = emit (Asp.Gatom.make "hash_constraint" (h :: args)) in
  hc [ str "version"; name; ts (D.p_version db slot) ];
  D.iter_variants db slot (fun var value ->
      hc [ str "variant_value"; name; ts var; ts value ]);
  hc
    [
      str "node_compiler_version";
      name;
      ts (D.p_compiler_name db slot);
      ts (D.p_compiler_version db slot);
    ];
  hc [ str "node_os"; name; ts (D.p_os db slot) ];
  hc [ str "node_target"; name; ts (D.p_target db slot) ];
  D.iter_deps db slot (fun dn dh ->
      emit (Asp.Gatom.make "hash_dep" [ h; ts dn; ts dh ]))

let n_installed_atoms db slot = 5 + D.n_variants db slot + D.n_deps db slot

(* --- closure -------------------------------------------------------------- *)

(* The package closure of a request depends only on the {e names} in it
   (roots and [^dep]s), never on the constraints: this is what lets
   [reuse_digest] key the reuse-visible DB slice by names alone. *)
let closure_table ~repo (roots : Specs.Spec.abstract list) =
  let is_virt n = Pkg.Repo.is_virtual repo n in
  let closure = Hashtbl.create 128 in
  let add_closure name =
    if not (Hashtbl.mem closure name) then begin
      if (not (is_virt name)) && Pkg.Repo.find repo name = None then
        raise (Unknown_package name);
      if not (is_virt name) then Hashtbl.replace closure name ();
      List.iter
        (fun d -> if not (is_virt d) then Hashtbl.replace closure d ())
        (Pkg.Repo.possible_dependencies repo name)
    end
  in
  List.iter
    (fun (a : Specs.Spec.abstract) ->
      add_closure a.Specs.Spec.aroot.Specs.Spec.cname;
      List.iter
        (fun (d : Specs.Spec.constraint_node) -> add_closure d.Specs.Spec.cname)
        a.Specs.Spec.adeps)
    roots;
  closure

let closure_packages ~repo roots =
  Hashtbl.fold (fun n () acc -> n :: acc) (closure_table ~repo roots) []
  |> List.sort compare

let reuse_digest ?installed ~repo roots =
  match installed with
  | Some db -> (
    (* an empty database and a slice with nothing eligible generate the
       same (absent) reuse facts, so they share the "reuse-empty" digest —
       the first install must not re-key requests that cannot see it *)
    match eligible_slots db (closure_table ~repo roots) with
    | [] -> "reuse-empty"
    | slots ->
      let hs =
        List.sort compare
          (List.map (fun s -> D.str_of_id db (D.p_hash db s)) slots)
      in
      Specs.Spec.digest_strings ("reuse.v1" :: hs))
  | None -> "no-reuse"

(* --- entry point ---------------------------------------------------------- *)

let generate ?(env = default_env) ?(prefs = Preferences.empty) ?installed
    ?(reuse_mode = `Stream) ~repo (roots : Specs.Spec.abstract list) =
  let env =
    match prefs.Preferences.compilers with
    | Some roster -> { env with compilers = roster }
    | None -> env
  in
  let g =
    {
      repo;
      genv = env;
      prefs;
      core = Gen.create ();
      msgs = [];
      version_sites = Hashtbl.create 64;
      compiler_sites = Hashtbl.create 16;
      target_sites = Hashtbl.create 16;
      extra_targets = Hashtbl.create 16;
      extra_oses = Hashtbl.create 16;
      extra_compilers = Hashtbl.create 16;
      extra_versions = Hashtbl.create 16;
      extra_variant_values = Hashtbl.create 16;
    }
  in
  (* validate root and ^dep names, and compute the package closure *)
  let closure = closure_table ~repo roots in
  let closure_packages =
    Hashtbl.fold (fun n () acc -> n :: acc) closure [] |> List.sort compare
  in
  (* reuse: record installed values first so version/variant/compiler pools
     include them *)
  let eligible =
    match installed with
    | Some db when not (Pkg.Database.is_empty db) ->
      let slots = eligible_slots db closure in
      List.iter (note_installed_values g db) slots;
      fact g "optimize_for_reuse" [];
      Some (db, slots)
    | _ -> None
  in
  (* roots *)
  List.iter
    (fun (a : Specs.Spec.abstract) ->
      let rname = a.Specs.Spec.aroot.Specs.Spec.cname in
      let id = new_condition g in
      describe_condition g id
        (Printf.sprintf "the request asks for %s" (Specs.Spec.abstract_to_string a));
      if is_virtual g rname then begin
        (* a virtual root: require its resolution, constrain the provider *)
        imp3 g id "virtual_node" rname;
        emit_imposed g id rname a.Specs.Spec.aroot
      end
      else begin
        fact g "root" [ str rname ];
        req3 g id "node" rname;
        emit_imposed g id rname a.Specs.Spec.aroot
      end;
      List.iter
        (fun (d : Specs.Spec.constraint_node) ->
          let dname = d.Specs.Spec.cname in
          if is_virtual g rname then begin
            (* virtual root: no reachability anchor; just force the nodes *)
            if is_virtual g dname then imp3 g id "virtual_node" dname
            else imp3 g id "node" dname
          end
          else if is_virtual g dname then imp4 g id "root_virtual_dep" rname dname
          else imp4 g id "root_dep" rname dname;
          emit_imposed g id dname d)
        a.Specs.Spec.adeps)
    roots;
  (* virtuals present in this solve *)
  let virtuals =
    List.filter
      (fun v ->
        List.exists
          (fun p -> Hashtbl.mem closure p)
          (Pkg.Repo.providers repo v)
        || List.exists
             (fun (a : Specs.Spec.abstract) ->
               String.equal a.Specs.Spec.aroot.Specs.Spec.cname v
               || List.exists
                    (fun (d : Specs.Spec.constraint_node) ->
                      String.equal d.Specs.Spec.cname v)
                    a.Specs.Spec.adeps)
             roots)
      (Pkg.Repo.virtuals repo)
  in
  List.iter
    (fun v ->
      fact g "virtual" [ str v ];
      List.iter
        (fun p ->
          if Hashtbl.mem closure p then begin
            fact g "possible_provider" [ str v; str p ]
          end)
        (Pkg.Repo.providers repo v);
      List.iteri
        (fun i p ->
          if Hashtbl.mem closure p then fact g "provider_weight" [ str v; str p; int i ])
        (effective_providers g v))
    virtuals;
  (* package metadata (conditions reference version/variant pools, so emit
     after noting installed extras) *)
  List.iter
    (fun name ->
      let p = Pkg.Repo.find_exn repo name in
      emit_package g p;
      emit_versions g p)
    closure_packages;
  (* version-constraint enumerations *)
  Hashtbl.iter
    (fun (pkg, con) () ->
      match Pkg.Repo.find repo pkg with
      | None -> ()
      | Some p ->
        let r = Specs.Vrange.of_string con in
        List.iter
          (fun (v, _, _) ->
            if Specs.Vrange.satisfies r v then
              fact g "version_satisfies_possible"
                [ str pkg; str con; str (Specs.Version.to_string v) ])
          (version_pool g p))
    g.version_sites;
  emit_environment g;
  (* Installed reuse facts come last — statement order and streamed
     seeding order coincide, so both modes intern atoms identically. *)
  let reuse_stream =
    match (eligible, reuse_mode) with
    | None, _ -> None
    | Some (db, slots), `Materialize ->
      let ts = term_memo db in
      List.iter
        (fun slot ->
          emit_installed_atoms ts db slot (fun (ga : Asp.Gatom.t) ->
              fact g ga.Asp.Gatom.pred ga.Asp.Gatom.args))
        slots;
      None
    | Some (db, slots), `Stream ->
      (* no per-spec atom lists: atoms are built on demand, straight into
         whatever sink the grounder hands us.  The stream is replayable
         (the arena is append-only, so the slots stay valid) and counts
         toward [n_facts] arithmetically. *)
      List.iter
        (fun slot -> Gen.bump g.core (n_installed_atoms db slot))
        slots;
      let ts = term_memo db in
      Some (fun sink -> List.iter (fun s -> emit_installed_atoms ts db s sink) slots)
  in
  {
    statements = Gen.statements g.core;
    n_facts = Gen.n_facts g.core;
    possible = closure_packages;
    conflict_msgs = g.msgs;
    cond_origins = Gen.origins g.core;
    reuse_stream;
  }
