(* determinism: benchmarks and structures must be replayable -- seeded
   RNG only, and wall-clock reads confined to the measurement layer
   (lib/harness + lib/obs). A wall-clock read or self-seeded RNG
   anywhere else makes a failing run unreproducible, which the stress
   and linearizability suites depend on. Every identifier occurrence is
   matched on its canonical path, so [module U = Unix] and [open Unix]
   cannot hide a read, and a function value passed without being
   applied is caught too. *)

open Lint_core

let name = "determinism"

let doc =
  "no self-seeded RNG or wall-clock reads outside lib/harness and lib/obs \
   (typed resolution: aliases and opens included)"

let banned =
  [
    "Random.self_init";
    "Random.State.make_self_init";
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.localtime";
    "Unix.gmtime";
    "Sys.time";
  ]

let file_findings (f : Cmt_load.file) =
  let aliases = Tast_util.collect_aliases f.str in
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Typedtree.Texp_ident (p, _, _) ->
              let canon = Tast_util.canonical aliases p in
              if Ast_util.suffix_matches canon ~suffixes:banned then
                acc :=
                  Prog.finding ~rule:name ~file:f.rel e.exp_loc
                    ~message:
                      (Printf.sprintf
                         "%s outside the measurement layer breaks run \
                          replayability"
                         canon)
                    ~hint:
                      "seed RNGs explicitly (Random.State.make [| seed |]) \
                       and take timings through lib/harness or lib/obs; a \
                       deliberate wall-clock read carries [@vbr.allow \
                       \"determinism\"]"
                  :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it f.str;
  List.rev !acc

let check (p : Prog.t) =
  List.concat_map
    (fun (f : Cmt_load.file) ->
      if f.scope.kind = Scope.Timed then [] else file_findings f)
    p.files
