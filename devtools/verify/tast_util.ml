(* Typed-tree helpers shared by the verifier's program model and rules.

   The central service is [canonical]: the dotted name of an identifier
   as the type-checker resolved it, with file-local module aliases
   ([module A = Atomic]) expanded transitively. [open]ed modules need no
   work at all -- the typed path already carries the full prefix (an
   [open Atomic] use of [get] shows up as [Stdlib.Atomic.get]) -- which
   is exactly the class of miss a parse-tree matcher cannot see. Functor
   parameters stay literal ([V.get_next]), which the rules rely on:
   structure code written against the OPTIMISTIC signature is matched by
   the suffix of the canonical name, not a hardcoded implementation
   module. *)

open Typedtree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let pos_leq (a : Location.t) (b : Location.t) =
  compare
    (line_of a, col_of a)
    (line_of b, col_of b)
  <= 0

(* File-local module alias table: [module P = Memsim.Packed] maps "P" to
   "Memsim.Packed". Aliases of aliases expand through the entries already
   collected (declaration order), so [module B = A] with [module A =
   Atomic] lands on "Stdlib.Atomic". Functor applications and inline
   structs are not aliases and are left out: paths through them keep
   their local head and the rules treat them by suffix. *)
let collect_aliases (str : structure) : (string, string) Hashtbl.t =
  let table = Hashtbl.create 8 in
  let expand_head flat =
    match String.index_opt flat '.' with
    | None -> (
        match Hashtbl.find_opt table flat with
        | Some t -> t
        | None -> flat)
    | Some i -> (
        let head = String.sub flat 0 i in
        let rest = String.sub flat (i + 1) (String.length flat - i - 1) in
        match Hashtbl.find_opt table head with
        | Some t -> t ^ "." ^ rest
        | None -> flat)
  in
  let rec alias_target (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (Path.name p)
    | Tmod_constraint (me', _, _, _) -> alias_target me'
    | _ -> None
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          (match (mb.mb_id, alias_target mb.mb_expr) with
          | Some id, Some target ->
              Hashtbl.replace table (Ident.name id) (expand_head target)
          | _ -> ());
          Tast_iterator.default_iterator.module_binding it mb);
    }
  in
  it.structure it str;
  table

let canonical (aliases : (string, string) Hashtbl.t) (p : Path.t) =
  let flat = Path.name p in
  match String.index_opt flat '.' with
  | None -> flat
  | Some i -> (
      let head = String.sub flat 0 i in
      let rest = String.sub flat (i + 1) (String.length flat - i - 1) in
      match Hashtbl.find_opt aliases head with
      | Some target -> target ^ "." ^ rest
      | None -> flat)

(* Immediate sub-expressions of [e], one level deep: the default typed
   iterator visits exactly the children, so capturing its [expr] calls
   without recursing yields them. Used by result-threading walks (the
   taint analysis) that cannot go through a unit-returning iterator. *)
let sub_exprs (e : expression) : expression list =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ child -> acc := child :: !acc);
    }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

(* All value identifiers mentioned anywhere inside [e] (including under
   field projections and nested applications). *)
let idents_of (e : expression) : Ident.t list =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it child ->
          (match child.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr it child);
    }
  in
  it.expr it e;
  !acc

(* Does [e] contain an application? The guard rules use this to tell
   the two kinds of word apart: [Atomic.get t.head] reads a root cell
   (subject is a projection), [Access.get (next_word t n)] reads a node
   word reached through a helper call. *)
let contains_apply (e : expression) : bool =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it child ->
          (match child.exp_desc with
          | Texp_apply _ -> found := true
          | _ -> ());
          if not !found then Tast_iterator.default_iterator.expr it child);
    }
  in
  it.expr it e;
  !found

(* Head identifier of an application argument, if it is (an application
   of) a plain identifier: used for the Padded.cell exemption. *)
let rec head_canon aliases (e : expression) : string option =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (canonical aliases p)
  | Texp_apply (hd, _) -> head_canon aliases hd
  | _ -> None

(* Peel the curried value parameters off a function body: [fun a b ->
   body] yields ([a; b], body). A multi-case [function] contributes its
   scrutinee parameter and stops (the cases stay inside the returned
   expression, which walkers descend into normally). *)
let peel_params (e : expression) : Ident.t list * expression =
  let rec go acc e =
    match e.exp_desc with
    | Texp_function { param; cases = [ { c_rhs; _ } ]; _ } ->
        go (param :: acc) c_rhs
    | Texp_function { param; _ } -> (List.rev (param :: acc), e)
    | _ -> (List.rev acc, e)
  in
  go [] e
