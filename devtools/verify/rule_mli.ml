(* mli-coverage: every lib/ module ships an interface. The capability
   planes only mean something if a module's exported surface is
   explicit -- an .mli is where GUARDED vs OPTIMISTIC obligations
   become visible. The compiler leaves a .cmti beside the .cmt exactly
   when the module has one. Signature-only carriers -- the *_intf.ml
   files -- are exempt: they exist to be included and have no hidden
   surface. *)

open Lint_core

let name = "mli-coverage"
let doc =
  "every lib/ module ships an .mli (signature carriers *_intf.ml exempt)"

let check (p : Prog.t) =
  List.filter_map
    (fun (f : Cmt_load.file) ->
      if f.intf || (not (Scope.in_lib f.scope)) || Scope.is_intf_module f.scope
      then None
      else
        Some
          (Finding.make ~rule:name ~file:f.rel ~line:1 ~col:0
             ~message:"library module without an .mli interface"
             ~hint:
               "add a sibling .mli making the exported plane explicit, or \
                rename to *_intf.ml if the module only carries signatures"))
    p.files
