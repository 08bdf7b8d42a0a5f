(* raw-atomic: optimistic vbr_ structures must go through the
   versioned plane, never raw Atomic. A parse-tree matcher sees only
   the literal path [Atomic.op] and is blind to [module A = Atomic] and
   [open Atomic]; here the type-checker has already resolved every use
   to its canonical path (Stdlib.Atomic.op), and the file-local alias
   table catches renamings, so both spellings are caught. The quiescent
   to_list debug helpers carry [@@vbr.allow "raw-atomic"].

   Accesses routed through Padded.cell are exempt: reading through the
   false-sharing padding wrapper is how the plane itself is reached.

   The rule also confines the node-layout cast to its one home,
   lib/memsim/node.ml, in every file of the tree: a node's level-0 next
   word is its field 0 ([link0]) viewed as an [int Atomic.t] by
   [Obj.magic]. Anywhere else, an [Obj.magic] whose result type is an
   [Atomic.t] forges an atomic view the Access layer never sees, and a
   read or write of [Node.link0] is a plain, unordered access to a word
   that is only sound through [Node.next0]. Both are found on the typed
   tree: the cast by the instantiated type of the [Obj.magic]
   occurrence, the field by its label's record type. *)

open Lint_core

let name = "raw-atomic"

let doc =
  "vbr_* structures must not touch Atomic directly (resolved through the \
   typed tree: aliases and opens included); use the versioned plane"

let atomic_ops =
  [
    "Atomic.get";
    "Atomic.set";
    "Atomic.compare_and_set";
    "Atomic.exchange";
    "Atomic.fetch_and_add";
    "Atomic.incr";
    "Atomic.decr";
    "Atomic.make";
  ]

let is_atomic canon = Ast_util.suffix_matches canon ~suffixes:atomic_ops
let node_home = "lib/memsim/node.ml"

(* [p] names type [t] of module [m], spelled through any library prefix
   (Memsim.Node.t) or dune's flattened form (Memsim__Node.t). *)
let names_type_of ~m (p : Path.t) =
  let n = Path.name p in
  Ast_util.suffix_matches n ~suffixes:[ m ^ ".t" ]
  || String.ends_with ~suffix:("__" ^ m ^ ".t") n

let rec result_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, r, _) -> result_type r
  | _ -> ty

let is_atomic_type ty =
  match Types.get_desc (result_type ty) with
  | Types.Tconstr (p, _, _) -> names_type_of ~m:"Atomic" p
  | _ -> false

let is_link0 (l : Types.label_description) =
  l.lbl_name = "link0"
  &&
  match Types.get_desc l.lbl_res with
  | Types.Tconstr (p, _, _) -> names_type_of ~m:"Node" p
  | _ -> false

let cast_findings (f : Cmt_load.file) =
  let acc = ref [] in
  let add loc message hint =
    acc := Prog.finding ~rule:name ~file:f.rel loc ~message ~hint :: !acc
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Typedtree.Texp_ident (p, _, _)
            when Ast_util.suffix_matches (Path.name p) ~suffixes:[ "Obj.magic" ]
                 && is_atomic_type e.exp_type ->
              add e.exp_loc
                "Obj.magic to an Atomic.t outside lib/memsim/node.ml forges \
                 an atomic view of a word"
                "the node's level-0 word is reached through Node.next0 / \
                 Node.word; no other cast to Atomic.t is sound"
          | Typedtree.Texp_field (_, _, l)
          | Typedtree.Texp_setfield (_, _, l, _)
            when is_link0 l ->
              add e.exp_loc
                "direct use of Node.link0 (the node's field 0) is a plain \
                 access to its level-0 next word"
                "go through Node.next0 (and Memsim.Access) instead"
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  if f.rel <> node_home then it.structure it f.str;
  List.rev !acc

let padded_subject (p : Prog.t) (s : Prog.site) =
  match s.kind with
  | Prog.Call args ->
      List.exists
        (fun (_, a) ->
          match
            List.find_opt
              (fun (f : Cmt_load.file) -> f.rel = s.owner_file)
              p.files
          with
          | None -> false
          | Some file -> (
              let aliases = Tast_util.collect_aliases file.str in
              match Tast_util.head_canon aliases a with
              | Some h -> Ast_util.suffix_matches h ~suffixes:[ "Padded.cell" ]
              | None -> false))
        args
  | Prog.Ref -> false

let check (p : Prog.t) =
  List.concat_map cast_findings p.files
  @ List.filter_map
    (fun (s : Prog.site) ->
      if
        Prog.file_kind p s.owner_file = Scope.Optimistic
        && (match s.kind with Prog.Call _ -> true | Prog.Ref -> false)
        && is_atomic s.canon
        && not (padded_subject p s)
      then
        Some
          (Prog.finding ~rule:name ~file:s.owner_file s.loc
             ~message:
               (Printf.sprintf
                  "%s bypasses the versioned plane in an optimistic \
                   structure (typed resolution: aliases and opens cannot \
                   hide it)"
                  s.canon)
             ~hint:
               "go through the OPTIMISTIC signature (read_root/get_next/\
                update); raw Atomic skips version validation")
      else None)
    p.sites
