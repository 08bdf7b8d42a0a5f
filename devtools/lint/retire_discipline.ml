(* retire-discipline: a node may only be retired after its final unlink,
   i.e. after this operation won a logical-delete mark or an unlink CAS —
   retiring a still-reachable node is the use-after-free the SMR schemes
   exist to prevent. Concretely, every [retire] call must be preceded,
   in the same function body, by a mark/CAS-plane call. [dealloc] is the
   never-published fast path: it must stay local to the operation that
   allocated the node (test code is outside the lint scope and may
   dealloc freely). *)
open Lint_core

let name = "retire-discipline"

(* Calls that witness a logical delete / unlink in the same body. *)
let cas_like = [ "mark"; "update"; "cas_root"; "compare_and_set" ]

let is_retire fname =
  Ast_util.is_qualified fname
  && List.mem (Ast_util.last_component fname) [ "retire"; "retire_ctx" ]

let is_dealloc fname =
  Ast_util.is_qualified fname && Ast_util.last_component fname = "dealloc"

let is_alloc fname =
  Ast_util.is_qualified fname
  && List.mem (Ast_util.last_component fname) [ "alloc"; "alloc_ctx" ]

let is_cas fname = List.mem (Ast_util.last_component fname) cas_like

let pos_before (a : Location.t) (b : Location.t) =
  a.loc_start.pos_lnum < b.loc_start.pos_lnum
  || a.loc_start.pos_lnum = b.loc_start.pos_lnum
     && a.loc_start.pos_cnum < b.loc_start.pos_cnum

let check (ctx : Rule.ctx) str =
  let findings = ref [] in
  Ast_util.iter_toplevel_bindings str ~f:(fun ~name:_ vb ->
      let apps = Ast_util.applications_in vb.Parsetree.pvb_expr in
      let flag rule_msg hint loc =
        findings :=
          Finding.make ~rule:name ~file:ctx.scope.path
            ~line:(Ast_util.line_of loc) ~col:(Ast_util.col_of loc)
            ~message:rule_msg ~hint
          :: !findings
      in
      List.iter
        (fun (fname, loc, _) ->
          if is_retire fname then begin
            let witnessed =
              List.exists
                (fun (g, gloc, _) -> is_cas g && pos_before gloc loc)
                apps
            in
            if not witnessed then
              flag
                "retire without a preceding successful mark/CAS in the same \
                 function body"
                "retire must follow the logical delete (mark) or unlink CAS \
                 that made the node unreachable; restructure, or move the \
                 retire next to its witness"
                loc
          end
          else if is_dealloc fname then begin
            let local_alloc =
              List.exists
                (fun (g, gloc, _) -> is_alloc g && pos_before gloc loc)
                apps
            in
            if not local_alloc then
              flag
                "dealloc of a node this function did not allocate"
                "dealloc is only for never-published nodes, local to the \
                 allocating operation (alloc ... dealloc in one body); a \
                 shared node must go through retire"
                loc
          end)
        apps);
  List.rev !findings

let rule =
  {
    Rule.name;
    doc =
      "retire only after a successful mark/unlink CAS in the same body; \
       dealloc only next to its alloc";
    check =
      Rule.Ast
        (fun ctx str ->
          match ctx.scope.kind with
          | Scope.Optimistic | Scope.Guarded -> check ctx str
          | _ -> []);
  }
