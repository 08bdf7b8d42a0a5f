(* guard-extent: in guarded structures, node-word accesses must stay
   covered by a guard when traversal helpers are extracted.

   A function "engages the plane" if it calls protect/protect_read/
   protect_own/transfer/begin_op/end_op itself. A helper that performs
   raw node-word accesses (Atomic.* or the Memsim.Access shim, with a
   computed subject -- a call like [next_word t n] rather than a field
   projection) without engaging the plane is only safe if every call
   chain reaching it passes through a function that does engage: the
   harris_list idiom, where [search] does the unguarded hand-over-hand
   reads and the public ops bracket it with begin_op/end_op. The
   fixpoint mirrors checkpoint-dominance: a helper is uncovered if it
   has no uses, or some use sits in module-level code or in a function
   that neither engages the plane nor is itself covered. *)

open Lint_core

let name = "guard-extent"

let doc =
  "raw node-word accesses in guarded structures must be covered by a \
   guard-engaging caller on every call chain"

let plane =
  [ "protect"; "protect_read"; "protect_own"; "transfer"; "begin_op"; "end_op" ]

let word_ops =
  [
    "Atomic.get";
    "Atomic.set";
    "Atomic.compare_and_set";
    "Atomic.exchange";
    "Atomic.fetch_and_add";
    "Access.get";
    "Access.set";
    "Access.compare_and_set";
    "Access.exchange";
    "Access.fetch_and_add";
  ]

let is_word_op canon = Ast_util.suffix_matches canon ~suffixes:word_ops

(* A node-word subject is one reached through a call ([next_word t n],
   [V.cell ...]); plain projections ([t.head]) are roots/fields the
   structure owns and may read unguarded. *)
let node_word_site (s : Prog.site) =
  match s.kind with
  | Prog.Call ((_, subject) :: _) ->
      is_word_op s.canon && Tast_util.contains_apply subject
  | _ -> false

let uncovered (p : Prog.t) =
  let n = Array.length p.fns in
  let engages = Array.init n (fun i -> Prog.engages p plane i) in
  let unc = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (f : Prog.fn) ->
        if (not unc.(f.id)) && not engages.(f.id) then
          let us = p.uses.(f.id) in
          let now =
            us = []
            || List.exists
                 (fun (u : Prog.site) ->
                   match u.owner with
                   | None -> true
                   | Some g -> (not engages.(g)) && unc.(g))
                 us
          in
          if now then (
            unc.(f.id) <- true;
            changed := true))
      p.fns
  done;
  (engages, unc)

let witness (p : Prog.t) engages unc (f : Prog.fn) =
  if p.uses.(f.id) = [] then
    "it has no callers in the checked tree, so no guard-engaging caller \
     covers it"
  else
    match
      List.find_opt
        (fun (u : Prog.site) ->
          match u.owner with
          | None -> true
          | Some g -> (not engages.(g)) && unc.(g))
        p.uses.(f.id)
    with
    | Some u ->
        Printf.sprintf
          "e.g. the use at %s:%d is not under any guard-engaging caller"
          u.owner_file (Tast_util.line_of u.loc)
    | None -> "a call chain reaches it with no guard engaged"

let check (p : Prog.t) =
  let engages, unc = uncovered p in
  let of_sites ~why ~file sites =
    List.filter_map
      (fun (s : Prog.site) ->
        if node_word_site s then
          Some
            (Prog.finding ~rule:name ~file s.loc
               ~message:
                 (Printf.sprintf
                    "%s touches a node word with no guard covering this call \
                     chain (%s)"
                    s.canon why)
               ~hint:
                 "bracket the callers with begin_op/end_op (or protect the \
                  traversal), or keep the access inside the function that \
                  engages the guard")
        else None)
      sites
  in
  let fn_findings =
    Array.to_list p.fns
    |> List.concat_map (fun (f : Prog.fn) ->
           if f.scope.kind = Scope.Guarded && (not engages.(f.id)) && unc.(f.id)
           then of_sites ~why:(witness p engages unc f) ~file:f.file
                  p.fn_sites.(f.id)
           else [])
  in
  let top_findings =
    List.concat_map
      (fun (file : Cmt_load.file) ->
        if file.scope.kind = Scope.Guarded then
          of_sites ~why:"it executes at module initialization" ~file:file.rel
            (Prog.toplevel_sites p file.rel)
        else [])
      p.files
  in
  fn_findings @ top_findings
