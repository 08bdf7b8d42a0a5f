(* vbr-verify: the repo's static checker of the SMR usage discipline,
   over the typed trees of lib/, bench/, bin/ and examples/ (see
   DESIGN.md §2.14). Everything lives in the [verify] library so the
   test suite can drive the same analysis over fixture trees. *)

let () = exit (Verify.Driver.main ())
