(* checkpoint-dominance: every optimistic-plane read/update must be
   dominated by an installed checkpoint, across function boundaries.

   Lexical coverage comes from the site walk ([in_ckpt]); the
   interprocedural part is a least fixpoint computing, per function,
   "reachable with no checkpoint installed": a function is unprotected
   if it has no uses at all in the checked tree (so nothing proves a
   caller installs one), or if some use is itself uncovered -- outside any
   checkpoint argument, in module-level code or in a function that is
   itself unprotected. A plane primitive then only needs flagging when
   it is lexically uncovered *and* its enclosing function is
   unprotected: the find/skip helpers of vbr_list, whose every call
   chain bottoms out inside a checkpoint2 argument, are proven safe
   with no annotation.

   A second, lexical sub-check enforces the paper's post-publish
   protocol (Figure 4, lines 12-13): after [commit_alloc] the still-
   armed pre-publish checkpoint must not see another Rollback-raising
   primitive, because a rollback would re-run the thunk and with it the
   already-successful publishing CAS path. [refresh_epoch] or a fresh
   [checkpoint] between the commit and the next optimistic read
   discharges it. *)

open Lint_core

let name = "checkpoint-dominance"

let doc =
  "optimistic-plane calls must be dominated by a checkpoint on every call \
   chain, and commit_alloc must be re-armed before the next optimistic read"

(* The OPTIMISTIC primitives that demand an installed checkpoint
   (matched by qualified last component, so any binding of the plane --
   V, Vbr, a local alias -- is covered). *)
let prims =
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

(* The subset that may raise Rollback (per vbr.mli): what must not
   follow a commit_alloc under the old checkpoint. cas_root and mark
   never roll back and are deliberately absent. *)
let rollback_raising =
  [
    "alloc";
    "alloc_ctx";
    "retire";
    "retire_ctx";
    "get_next";
    "get_next_word";
    "get_next_packed";
    "get_next_raw";
    "get_birth";
    "get_key";
    "read_root";
    "read_root_packed";
    "validate_epoch";
  ]

let reestablish = [ "refresh_epoch"; "checkpoint"; "checkpoint2" ]

let is_call_of set (s : Prog.site) =
  match s.kind with
  | Call _ ->
      Ast_util.is_qualified s.canon
      && List.mem (Ast_util.last_component s.canon) set
  | Ref -> false

(* ---- interprocedural dominance ---- *)

let unprotected (p : Prog.t) =
  let n = Array.length p.fns in
  let unprot = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (f : Prog.fn) ->
        if not unprot.(f.id) then
          let us = p.uses.(f.id) in
          let now =
            us = []
            || List.exists
                 (fun (u : Prog.site) ->
                   (not u.in_ckpt)
                   &&
                   match u.owner with
                   | None -> true
                   | Some g -> unprot.(g))
                 us
          in
          if now then (
            unprot.(f.id) <- true;
            changed := true))
      p.fns
  done;
  unprot

let witness (p : Prog.t) unprot (f : Prog.fn) =
  if p.uses.(f.id) = [] then
    "it has no callers in the checked tree, so nothing installs one"
  else
    match
      List.find_opt
        (fun (u : Prog.site) ->
          (not u.in_ckpt)
          && match u.owner with None -> true | Some g -> unprot.(g))
        p.uses.(f.id)
    with
    | Some u ->
        Printf.sprintf "e.g. the use at %s:%d is outside any checkpoint"
          u.owner_file (Tast_util.line_of u.loc)
    | None -> "a call chain reaches it without one"

let dominance_findings (p : Prog.t) =
  let unprot = unprotected p in
  let of_sites ~why ~file sites =
    List.filter_map
      (fun (s : Prog.site) ->
        if is_call_of prims s && not s.in_ckpt then
          Some
            (Prog.finding ~rule:name ~file s.loc
               ~message:
                 (Printf.sprintf
                    "%s runs with no checkpoint installed on some call chain \
                     (%s)"
                    s.canon why)
               ~hint:
                 "wrap the call in V.checkpoint, or install the checkpoint \
                  in every caller (checkpoint2 for allocation-free \
                  capture)")
        else None)
      sites
  in
  let fn_findings =
    Array.to_list p.fns
    |> List.concat_map (fun (f : Prog.fn) ->
           if f.scope.kind = Scope.Optimistic && unprot.(f.id) then
             of_sites ~why:(witness p unprot f) ~file:f.file p.fn_sites.(f.id)
           else [])
  in
  let top_findings =
    List.concat_map
      (fun (file : Cmt_load.file) ->
        if file.scope.kind = Scope.Optimistic then
          of_sites ~why:"it executes at module initialization" ~file:file.rel
            (Prog.toplevel_sites p file.rel)
        else [])
      p.files
  in
  fn_findings @ top_findings

(* ---- commit_alloc re-arm (lexical, per function) ---- *)

let loc_after a b = not (Tast_util.pos_leq a b)

let commit_findings (p : Prog.t) =
  let check_group ~file sites =
    let commits = List.filter (fun s -> is_call_of [ "commit_alloc" ] s) sites in
    List.filter_map
      (fun (c : Prog.site) ->
        (* the nearest Rollback-raising primitive lexically after the
           commit, if any *)
        let later =
          List.filter
            (fun (s : Prog.site) ->
              is_call_of rollback_raising s && loc_after s.loc c.loc)
            sites
        in
        match
          List.sort
            (fun (a : Prog.site) b ->
              compare
                (Tast_util.line_of a.loc, Tast_util.col_of a.loc)
                (Tast_util.line_of b.loc, Tast_util.col_of b.loc))
            later
        with
        | [] -> None
        | (r : Prog.site) :: _ ->
            let rearmed =
              List.exists
                (fun (s : Prog.site) ->
                  is_call_of reestablish s
                  && loc_after s.loc c.loc
                  && loc_after r.loc s.loc)
                sites
            in
            if rearmed then None
            else
              Some
                (Prog.finding ~rule:name ~file r.loc
                   ~message:
                     (Printf.sprintf
                        "%s may raise Rollback after the commit_alloc at line \
                         %d under the still-armed pre-publish checkpoint: a \
                         rollback here re-runs the already-successful \
                         publishing CAS path"
                        r.canon
                        (Tast_util.line_of c.loc))
                   ~hint:
                     "call V.refresh_epoch (or install a fresh V.checkpoint) \
                      immediately after commit_alloc, before the next \
                      optimistic read (Figure 4, lines 12-13)"))
      commits
  in
  Array.to_list p.fns
  |> List.concat_map (fun (f : Prog.fn) ->
         if f.scope.kind = Scope.Optimistic then
           check_group ~file:f.file p.fn_sites.(f.id)
         else [])

let check (p : Prog.t) = dominance_findings p @ commit_findings p
