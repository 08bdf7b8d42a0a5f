(* The verify driver: load every .cmt under the scan root, build the
   whole-program model once, run the interprocedural rule table, filter
   [@vbr.allow] spans (collected from the typed trees at expression,
   binding and file granularity), and report text, JSON and SARIF.
   Exit status 1 iff findings remain; 2 if no typed trees were found
   (the build that produces them did not run -- a misconfiguration, not
   a clean tree). *)

open Lint_core

let tool = "vbr-verify"

(* Run the rule table over the .cmt trees under [root]. Returns the
   surviving findings, sorted, plus the number of files analyzed. *)
let run ?(rules = Registry.all) ~root () =
  let files = Cmt_load.load ~root in
  let prog = Prog.build files in
  let findings =
    List.concat_map (fun (r : Registry.rule) -> r.check prog) rules
  in
  let suppressed (f : Finding.t) =
    match
      List.find_opt (fun (x : Cmt_load.file) -> x.rel = f.file) files
    with
    | None -> false
    | Some x -> Suppress.suppressed x.spans ~rule:f.rule ~line:f.line
  in
  let surviving =
    List.filter (fun f -> not (suppressed f)) findings
    |> List.sort_uniq Finding.compare
  in
  (surviving, List.length files)

let report_json ~root findings : Obs.Sink.json =
  Obj
    [
      ("tool", String tool);
      ("root", String root);
      ( "rules",
        List
          (List.map
             (fun (r : Registry.rule) -> Obs.Sink.String r.name)
             Registry.all) );
      ("finding_count", Int (List.length findings));
      ("findings", List (List.map Finding.to_json findings));
    ]

let usage =
  "vbr_verify [--root DIR] [--json FILE] [--sarif FILE] [--rules r1,r2] \
   [--quiet]"

let main () =
  let root = ref "." in
  let json = ref "" in
  let sarif = ref "" in
  let quiet = ref false in
  let rules = ref Registry.all in
  let set_rules s =
    rules :=
      List.map
        (fun n ->
          match Registry.find n with
          | Some r -> r
          | None ->
              raise
                (Arg.Bad
                   (Printf.sprintf "unknown rule %S (known: %s)" n
                      (String.concat ", "
                         (List.map
                            (fun (r : Registry.rule) -> r.name)
                            Registry.all)))))
        (String.split_on_char ',' s)
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR scan root (default .)");
      ("--json", Arg.Set_string json, "FILE write a JSON report");
      ("--sarif", Arg.Set_string sarif, "FILE write a SARIF 2.1.0 report");
      ("--rules", Arg.String set_rules, "r1,r2 restrict to these rules");
      ("--quiet", Arg.Set quiet, " suppress per-finding text output");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  let findings, nfiles = run ~rules:!rules ~root:!root () in
  if not !quiet then
    List.iter (fun f -> print_endline (Finding.to_string f)) findings;
  if !json <> "" then
    Obs.Sink.write_file !json (report_json ~root:!root findings);
  if !sarif <> "" then
    Sarif.write_file !sarif ~tool ~rules:(Registry.docs ()) findings;
  if nfiles = 0 then begin
    Printf.eprintf
      "vbr-verify: no .cmt files under %s/{%s} -- build them first \
       (dune build @check)\n"
      !root
      (String.concat "," Cmt_load.scan_dirs);
    2
  end
  else if findings = [] then begin
    if not !quiet then
      Printf.printf "vbr-verify: %d typed trees clean (%d rules)\n" nfiles
        (List.length !rules);
    0
  end
  else begin
    Printf.printf "vbr-verify: %d finding(s)\n" (List.length findings);
    1
  end
