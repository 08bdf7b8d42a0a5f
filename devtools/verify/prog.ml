(* The whole-program model the rules run over.

   Pass 1 extracts every top-level function (at any module/functor
   nesting depth) from every loaded file into one table, keyed by
   (file, name). Pass 2 walks each function body -- and each piece of
   module-level code -- recording *sites*: applications of a named head
   and bare references to known functions (higher-order uses, e.g. a
   body passed to [checkpoint2]). Every site carries

   - its canonical head name (aliases expanded, opens resolved),
   - the function it resolves to, when the callee is in the table
     (unqualified names resolve within the file; [M.f] resolves when
     [M] names a loaded file that defines [f]; anything else --
     functor parameters like [V.get_next], functor applications --
     stays unresolved and is matched by the rules on its name), and
   - whether it sits lexically inside a [checkpoint]/[checkpoint2]
     argument, which is how lexical protection is established: a
     function *passed to* checkpoint2 is a covered reference, and
     everything inside the passed closure inherits coverage.

   The rules then run interprocedural fixpoints over [uses] (who refers
   to whom, covered or not) without touching the trees again. *)

open Typedtree
open Lint_core

type fn = {
  id : int;
  file : string;  (* rel source path *)
  scope : Scope.t;
  name : string;
  loc : Location.t;
  params : Ident.t list;
  body : expression;  (* the full bound expression, params included *)
}

type kind =
  | Call of (string * expression) list
      (* label text ("" for unlabeled) and argument, in source order *)
  | Ref  (* the function's name used as a value, not applied *)

type site = {
  owner : int option;  (* enclosing function; None = module-level code *)
  owner_file : string;
  canon : string;
  target : int option;
  in_ckpt : bool;
  loc : Location.t;
  kind : kind;
}

type t = {
  files : Cmt_load.file list;
  fns : fn array;
  sites : site list;
  uses : site list array;  (* per fn id: sites whose target is that fn *)
  fn_sites : site list array;  (* per fn id: sites owned by that fn *)
}

let checkpoint_heads = [ "checkpoint"; "checkpoint2" ]

let is_checkpoint canon =
  Ast_util.is_qualified canon
  && List.mem (Ast_util.last_component canon) checkpoint_heads

let label_text = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled s | Asttypes.Optional s -> s

(* ---- pass 1: function extraction ---- *)

let extract_fns (files : Cmt_load.file list) : fn array =
  let fns = ref [] in
  let next = ref 0 in
  let add ~file ~scope name loc params body =
    let id = !next in
    incr next;
    fns := { id; file; scope; name; loc; params; body } :: !fns
  in
  List.iter
    (fun (f : Cmt_load.file) ->
      let it =
        {
          Tast_iterator.default_iterator with
          structure_item =
            (fun it si ->
              (match si.str_desc with
              | Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                      | Tpat_var (_, name), Texp_function _ ->
                          let params, _ = Tast_util.peel_params vb.vb_expr in
                          add ~file:f.rel ~scope:f.scope name.txt vb.vb_loc
                            params vb.vb_expr
                      | _ -> ())
                    vbs
              | _ -> ());
              (* Recurse: functions inside [module]/functor bodies are
                 top-level for our purposes. The default iterator
                 visits nested structures. *)
              Tast_iterator.default_iterator.structure_item it si);
        }
      in
      it.structure it f.str)
    files;
  let arr = Array.of_list (List.rev !fns) in
  Array.sort (fun a b -> compare a.id b.id) arr;
  arr

(* ---- pass 2: site collection ---- *)

(* module name ("Vbr_list") -> file defining it *)
let module_file_table (files : Cmt_load.file list) =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (f : Cmt_load.file) ->
      let m =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename f.rel))
      in
      if not (Hashtbl.mem t m) then Hashtbl.add t m f.rel)
    files;
  t

let build (files : Cmt_load.file list) : t =
  let fns = extract_fns files in
  let by_file_name = Hashtbl.create 64 in
  Array.iter
    (fun (f : fn) ->
      (* Later bindings shadow earlier ones of the same name. *)
      Hashtbl.replace by_file_name (f.file, f.name) f.id)
    fns;
  let mod_file = module_file_table files in
  let resolve ~file canon =
    if not (Ast_util.is_qualified canon) then
      Hashtbl.find_opt by_file_name (file, canon)
    else
      match List.rev (String.split_on_char '.' canon) with
      | last :: m :: _ -> (
          match Hashtbl.find_opt mod_file m with
          | Some file' -> Hashtbl.find_opt by_file_name (file', last)
          | None -> None)
      | _ -> None
  in
  let sites = ref [] in
  let record s = sites := s :: !sites in
  let walk_fn_body (f : Cmt_load.file) aliases owner (body : expression) =
    let in_ckpt = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it e ->
            match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
                let canon = Tast_util.canonical aliases p in
                let argl =
                  List.filter_map
                    (fun (lbl, a) ->
                      Option.map (fun a -> (label_text lbl, a)) a)
                    args
                in
                record
                  {
                    owner;
                    owner_file = f.rel;
                    canon;
                    target = resolve ~file:f.rel canon;
                    in_ckpt = !in_ckpt;
                    loc = e.exp_loc;
                    kind = Call argl;
                  };
                let saved = !in_ckpt in
                if is_checkpoint canon then in_ckpt := true;
                List.iter (fun (_, a) -> it.expr it a) argl;
                in_ckpt := saved
            | Texp_ident (p, _, _) -> (
                let canon = Tast_util.canonical aliases p in
                match resolve ~file:f.rel canon with
                | Some id ->
                    record
                      {
                        owner;
                        owner_file = f.rel;
                        canon;
                        target = Some id;
                        in_ckpt = !in_ckpt;
                        loc = e.exp_loc;
                        kind = Ref;
                      }
                | None -> ())
            | _ -> Tast_iterator.default_iterator.expr it e)
      }
    in
    it.expr it body
  in
  (* Walk every file once: extracted function bodies get their fn id as
     owner; all other module-level expressions get owner [None]. *)
  List.iter
    (fun (f : Cmt_load.file) ->
      let aliases = Tast_util.collect_aliases f.str in
      let it =
        {
          Tast_iterator.default_iterator with
          structure_item =
            (fun it si ->
              (match si.str_desc with
              | Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      let owner =
                        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                        | Tpat_var (_, name), Texp_function _ ->
                            Hashtbl.find_opt by_file_name (f.rel, name.txt)
                        | _ -> None
                      in
                      walk_fn_body f aliases owner vb.vb_expr)
                    vbs
              | Tstr_eval (e, _) -> walk_fn_body f aliases None e
              | _ -> ());
              Tast_iterator.default_iterator.structure_item it si);
          (* Expressions under Tstr_value/Tstr_eval are walked above
             with ownership; stop the default iterator from walking
             them a second time. *)
          expr = (fun _ _ -> ());
        }
      in
      it.structure it f.str)
    files;
  let sites = List.rev !sites in
  let uses = Array.make (Array.length fns) [] in
  let fn_sites = Array.make (Array.length fns) [] in
  List.iter
    (fun s ->
      (match s.target with
      | Some id -> uses.(id) <- s :: uses.(id)
      | None -> ());
      match s.owner with
      | Some id -> fn_sites.(id) <- s :: fn_sites.(id)
      | None -> ())
    sites;
  Array.iteri (fun i l -> uses.(i) <- List.rev l) uses;
  Array.iteri (fun i l -> fn_sites.(i) <- List.rev l) fn_sites;
  { files; fns; sites; uses; fn_sites }

(* ---- shared helpers for rules ---- *)

let file_kind (p : t) rel : Scope.kind =
  match List.find_opt (fun (f : Cmt_load.file) -> f.rel = rel) p.files with
  | Some f -> f.scope.kind
  | None -> Scope.Other

(* Does [f] call any of [plane] (by qualified last component)? *)
let engages (p : t) plane (id : int) =
  List.exists
    (fun s ->
      match s.kind with
      | Call _ ->
          Ast_util.is_qualified s.canon
          && List.mem (Ast_util.last_component s.canon) plane
      | Ref -> false)
    p.fn_sites.(id)

(* Module-level sites of a given file. *)
let toplevel_sites (p : t) rel =
  List.filter (fun s -> s.owner = None && s.owner_file = rel) p.sites

let finding ~rule ~file (loc : Location.t) ~message ~hint =
  Finding.make ~rule ~file ~line:(Tast_util.line_of loc)
    ~col:(Tast_util.col_of loc) ~message ~hint
