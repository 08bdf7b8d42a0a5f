(* checkpoint-scope: in OPTIMISTIC-backed modules every epoch-validated
   method call must sit lexically inside a [checkpoint] thunk — the
   methods raise Rollback, and only the checkpoint combinator performs
   the Appendix-B rollback duties (PAPER.md §4.2.1). Helper functions
   whose checkpoints are deliberately installed by their callers (the
   Figure-3 find idiom) document that transfer of obligation with
   [@vbr.allow "checkpoint-scope"] on the binding. *)
open Lint_core
open Parsetree

let name = "checkpoint-scope"

(* The ctx-plane methods that either raise Rollback or must not cross a
   rollback boundary. Matched on the last identifier component of a
   module-qualified call (V.get_next, Vbr.update, ...). *)
let checked =
  [
    "alloc";
    "alloc_ctx";
    "get_next";
    "get_next_word";
    "get_next_packed";
    "get_next_raw";
    "get_birth";
    "get_key";
    "read_root";
    "read_root_packed";
    "update";
    "mark";
    "cas_root";
    "retire";
    "retire_ctx";
    "commit_alloc";
    "refresh_next";
    "heal_stale_edge";
  ]

(* The closure-free [checkpoint2] shape installs scope just
   like [checkpoint]; their body arguments are usually references to
   top-level functions, which carry their own allow annotations. *)
let is_checkpoint_head (e : expression) =
  match Ast_util.fn_name e with
  | Some n -> (
      match Ast_util.last_component n with
      | "checkpoint" | "checkpoint2" -> true
      | _ -> false)
  | None -> false

let check (ctx : Rule.ctx) str =
  let findings = ref [] in
  let in_checkpoint = ref false in
  let flag fname loc =
    findings :=
      Finding.make ~rule:name ~file:ctx.scope.path ~line:(Ast_util.line_of loc)
        ~col:(Ast_util.col_of loc)
        ~message:
          (Printf.sprintf
             "%s may raise Rollback but is not lexically inside a checkpoint \
              thunk"
             fname)
        ~hint:
          "wrap the operation body in V.checkpoint c (fun () -> ...); a \
           helper whose caller installs the checkpoint carries [@vbr.allow \
           \"checkpoint-scope\"] on its binding"
      :: !findings
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_apply (head, args) when is_checkpoint_head head ->
              (* Everything inside the checkpoint's arguments (the ctx and
                 the thunk) is covered. *)
              let saved = !in_checkpoint in
              in_checkpoint := true;
              List.iter (fun (_, a) -> it.expr it a) args;
              in_checkpoint := saved
          | Pexp_apply (head, _) ->
              (match Ast_util.fn_name head with
              | Some fname
                when Ast_util.is_qualified fname
                     && List.mem (Ast_util.last_component fname) checked
                     && not !in_checkpoint ->
                  flag fname e.pexp_loc
              | _ -> ());
              Ast_iterator.default_iterator.expr it e
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  List.rev !findings

let rule =
  {
    Rule.name;
    doc =
      "in OPTIMISTIC-backed modules, Rollback-raising method calls must be \
       lexically inside a checkpoint thunk";
    check =
      Rule.Ast
        (fun ctx str ->
          match ctx.scope.kind with
          | Scope.Optimistic -> check ctx str
          | _ -> []);
  }
