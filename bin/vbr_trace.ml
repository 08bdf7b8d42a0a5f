(* vbr-trace: replay lifecycle trace CSVs (written by the bench's --trace
   mode) through the offline SMR invariant checker, Trace_check, and
   report violations in vbr-verify's file:line / rule / hint format. Exit
   1 iff any violation was found (or, under --no-truncation, any input
   ring overwrote events — the CI gate uses that to insist on full
   traces). *)

let usage = "vbr-trace [--no-truncation] [--quiet] TRACE.csv..."

let () =
  let no_trunc = ref false in
  let quiet = ref false in
  let files = ref [] in
  Arg.parse
    [
      ( "--no-truncation",
        Arg.Set no_trunc,
        " fail on a truncated trace instead of skipping the lifecycle, \
         guard and rollback rules" );
      ("--quiet", Arg.Set quiet, " print findings only, no per-file summary");
    ]
    (fun f -> files := f :: !files)
    usage;
  let files = List.rev !files in
  if files = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun file ->
      match Obs.Trace.load_csv file with
      | exception Failure msg ->
          Printf.eprintf "%s\n" msg;
          failed := true
      | dump ->
          let { Trace_check.findings; truncated } =
            Trace_check.check ~file dump
          in
          if truncated then
            if !no_trunc then begin
              Printf.eprintf
                "%s: trace truncated (%d events dropped) under \
                 --no-truncation; raise the ring capacity or shrink the op \
                 budget\n"
                file dump.Obs.Trace.d_dropped;
              failed := true
            end
            else
              Printf.eprintf
                "%s: warning: %d events dropped; lifecycle, guard and \
                 rollback rules skipped\n"
                file dump.Obs.Trace.d_dropped;
          List.iter (fun f -> print_endline (Lint_core.Finding.to_string f)) findings;
          if findings <> [] then failed := true
          else if not !quiet then
            Printf.printf "%s: %d events (%s, %d threads): no violations\n"
              file
              (Array.length dump.Obs.Trace.d_events)
              dump.Obs.Trace.d_scheme dump.Obs.Trace.d_threads)
    files;
  exit (if !failed then 1 else 0)
