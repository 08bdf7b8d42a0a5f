(* Dotted-name helpers shared by the rules: every call site and
   identifier reaches them as a canonical dotted path
   ("Stdlib.Atomic.get", "V.get_next"). *)

let last_component name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* Whether the identifier is module-qualified (Atomic.get, V.alloc) rather
   than a bare local name. *)
let is_qualified name = String.contains name '.'

(* [suffix_matches name ~suffixes] is true when [name] is one of the
   suffixes or ends with ".suffix" — so "Stdlib.Atomic.get" matches
   "Atomic.get". *)
let suffix_matches name ~suffixes =
  List.exists
    (fun sfx ->
      name = sfx
      ||
      let ln = String.length name and ls = String.length sfx in
      ln > ls + 1
      && String.sub name (ln - ls - 1) (ls + 1) = "." ^ sfx)
    suffixes
