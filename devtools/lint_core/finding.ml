(* One checker finding: a rule violation anchored to a file position, with a
   fix hint so the report is actionable without opening DESIGN.md. *)

type t = {
  rule : string;  (* rule name, e.g. "raw-atomic" *)
  file : string;  (* path relative to the scan root, '/'-separated *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, like the compiler's *)
  message : string;  (* what is wrong at this site *)
  hint : string;  (* how to fix (or suppress) it *)
}

let make ~rule ~file ~line ~col ~message ~hint =
  { rule; file; line; col; message; hint }

(* Order for stable reports: by file, then position, then rule. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s\n    hint: %s" f.file f.line f.col f.rule
    f.message f.hint

let to_json f : Obs.Sink.json =
  Obj
    [
      ("rule", String f.rule);
      ("file", String f.file);
      ("line", Int f.line);
      ("col", Int f.col);
      ("message", String f.message);
      ("hint", String f.hint);
    ]
