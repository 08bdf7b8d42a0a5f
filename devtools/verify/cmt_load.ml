(* Loading the typed trees dune already produces. Every module compiled
   under the scanned directories leaves a .cmt (binary-annotated typed
   tree) in its library's .<lib>.objs/byte (or executable's .eobjs/byte)
   directory, and a .cmti beside it when the module has an interface;
   the verifier scans for them instead of re-typechecking, so it sees
   exactly the trees the compiler certified, with module aliases, opens
   and functor parameters resolved the way the type-checker resolved
   them.

   The repo-relative source path is reconstructed from the .cmt's own
   location (its directory minus the dune-internal .objs/byte suffix)
   plus the basename the compiler recorded, so Scope classification and
   [@vbr.allow] spans key on source paths. *)

open Lint_core

type file = {
  rel : string;  (* source path relative to the scan root, '/'-separated *)
  scope : Scope.t;
  str : Typedtree.structure;
  spans : Suppress.span list;  (* [@vbr.allow] spans from the typed tree *)
  intf : bool;  (* the module has an .mli (a .cmti sits beside the .cmt) *)
}

let scan_dirs = [ "lib"; "bench"; "bin"; "examples" ]

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path acc
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries

let collect_cmts ~root =
  List.concat_map
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir && Sys.is_directory dir then List.rev (walk dir [])
      else [])
    scan_dirs

(* "<root>/lib/dstruct/.dstruct.objs/byte/x.cmt" -> "lib/dstruct": the
   source directory is the .cmt directory truncated at the first
   dune-internal (dot-prefixed) component. *)
let source_dir ~root cmt_path =
  let dir = Filename.dirname cmt_path in
  let rel =
    let r = root ^ Filename.dir_sep in
    if String.length dir >= String.length r && String.sub dir 0 (String.length r) = r
    then String.sub dir (String.length r) (String.length dir - String.length r)
    else dir
  in
  let parts = String.split_on_char '/' rel in
  let rec keep = function
    | [] -> []
    | p :: _ when String.length p > 0 && p.[0] = '.' -> []
    | p :: rest -> p :: keep rest
  in
  String.concat "/" (keep parts)

let load_one ~root cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None  (* unreadable / version-skewed artifact: skip *)
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when Filename.check_suffix src ".ml" ->
          (* Wrapper/alias modules dune generates end in .ml-gen and are
             filtered by the suffix test above. *)
          let rel = source_dir ~root cmt_path ^ "/" ^ Filename.basename src in
          Some
            {
              rel;
              scope = Scope.classify rel;
              str;
              spans = Suppress.collect str;
              intf =
                Sys.file_exists (Filename.remove_extension cmt_path ^ ".cmti");
            }
      | _ -> None)

let load ~root =
  collect_cmts ~root
  |> List.filter_map (load_one ~root)
  |> List.sort_uniq (fun a b -> String.compare a.rel b.rel)
