(* blocking-in-critical-section: nothing that can block the domain may
   be reachable from inside a checkpoint or guard scope. A blocked
   thread inside a checkpoint pins its saved epoch; inside a guard it
   pins every retired node behind the guard -- either way reclamation
   stalls for the duration, which defeats the scheme's lock-freedom.

   Critical contexts: lexically inside a checkpoint argument (any
   file), or inside a guard-engaging function of a guarded structure or
   scheme implementation. The reachability fixpoint propagates
   criticality down the call graph: a function is critical if any use
   of it is a critical site, and then every blocking call inside it --
   or inside anything it reaches -- is a finding. *)

open Lint_core

let name = "blocking-in-critical-section"

let doc =
  "no blocking call (Mutex/Condition/Unix sleeps and waits/Domain.join) may \
   be reachable from inside a checkpoint or guard scope"

let guard_plane =
  [ "protect"; "protect_read"; "protect_own"; "transfer"; "begin_op"; "end_op" ]

let blocking =
  [
    "Mutex.lock";
    "Condition.wait";
    "Semaphore.Counting.acquire";
    "Semaphore.Binary.acquire";
    "Thread.delay";
    "Thread.join";
    "Domain.join";
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.select";
    "Unix.wait";
    "Unix.waitpid";
  ]

let is_blocking canon = Ast_util.suffix_matches canon ~suffixes:blocking

(* A guard-engaging function body in guarded/scheme code is a critical
   region by containment (a lexical approximation: the whole body counts,
   not just the span between begin_op and end_op). *)
let guard_critical (p : Prog.t) =
  Array.map
    (fun (f : Prog.fn) ->
      (match f.scope.kind with
      | Scope.Guarded | Scope.Scheme_impl -> true
      | _ -> false)
      && Prog.engages p guard_plane f.id)
    p.fns

let critical_fns (p : Prog.t) =
  let in_guard = guard_critical p in
  let crit = Array.make (Array.length p.fns) false in
  let critical_use (u : Prog.site) =
    u.in_ckpt
    ||
    match u.owner with
    | None -> false
    | Some g -> in_guard.(g) || crit.(g)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (f : Prog.fn) ->
        if not crit.(f.id) then
          if List.exists critical_use p.uses.(f.id) then (
            crit.(f.id) <- true;
            changed := true))
      p.fns
  done;
  (in_guard, crit)

let check (p : Prog.t) =
  let in_guard, crit = critical_fns p in
  List.filter_map
    (fun (s : Prog.site) ->
      let critical_here =
        s.in_ckpt
        ||
        match s.owner with
        | None -> false
        | Some g -> in_guard.(g) || crit.(g)
      in
      match s.kind with
      | Prog.Call _ when critical_here && is_blocking s.canon ->
          let why =
            if s.in_ckpt then "lexically inside a checkpoint argument"
            else
              match s.owner with
              | Some g when in_guard.(g) ->
                  "inside a guard-engaging function"
              | Some g ->
                  Printf.sprintf
                    "in %s, which is reachable from a critical section"
                    p.fns.(g).name
              | None -> "in module-level code"
          in
          Some
            (Prog.finding ~rule:name ~file:s.owner_file s.loc
               ~message:
                 (Printf.sprintf
                    "%s can block while an SMR critical section is open (%s): \
                     a blocked thread pins its epoch/guard and stalls \
                     reclamation"
                    s.canon why)
               ~hint:
                 "move the blocking call outside the checkpoint/guard scope, \
                  or split the operation so reclamation state is released \
                  first")
      | _ -> None)
    p.sites
