(* The verifier's rule table: every rule runs over the typed program
   model. Adding a rule = one module exposing [name]/[doc]/[check] plus
   one row here; the driver, JSON and SARIF reports, --rules filter and
   test suite all follow the table. *)

open Lint_core

type rule = { name : string; doc : string; check : Prog.t -> Finding.t list }

let all : rule list =
  [
    { name = Rule_ckpt.name; doc = Rule_ckpt.doc; check = Rule_ckpt.check };
    { name = Rule_taint.name; doc = Rule_taint.doc; check = Rule_taint.check };
    {
      name = Rule_taint.Discipline.name;
      doc = Rule_taint.Discipline.doc;
      check = Rule_taint.Discipline.check;
    };
    { name = Rule_guard.name; doc = Rule_guard.doc; check = Rule_guard.check };
    { name = Rule_block.name; doc = Rule_block.doc; check = Rule_block.check };
    { name = Rule_raw.name; doc = Rule_raw.doc; check = Rule_raw.check };
    { name = Rule_det.name; doc = Rule_det.doc; check = Rule_det.check };
    { name = Rule_mli.name; doc = Rule_mli.doc; check = Rule_mli.check };
  ]

let find name = List.find_opt (fun r -> r.name = name) all
let docs () = List.map (fun r -> (r.name, r.doc)) all
