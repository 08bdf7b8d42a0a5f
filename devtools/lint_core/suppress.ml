(* [@vbr.allow "<rule>"] suppression spans.

   The attribute can sit on any expression, value binding, or structure
   item; every finding of the named rule whose location falls inside the
   attributed node's span is dropped. A floating [@@@vbr.allow "<rule>"]
   suppresses the rule for the whole file. The rule name "all" suppresses
   every rule. *)

open Parsetree

type span = { rule : string; first : int; last : int }
(* [first]/[last] are 1-based line numbers, inclusive. *)

let attr_name = "vbr.allow"
let whole_file = max_int

let rec strings_of_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_apply (head, args) ->
      strings_of_expr head
      @ List.concat_map (fun (_, a) -> strings_of_expr a) args
  | Pexp_tuple es -> List.concat_map strings_of_expr es
  | _ -> []

let rules_of_attr (attr : attribute) =
  if attr.attr_name.txt <> attr_name then []
  else
    match attr.attr_payload with
    | PStr items ->
        List.concat_map
          (fun si ->
            match si.pstr_desc with
            | Pstr_eval (e, _) -> strings_of_expr e
            | _ -> [])
          items
    | _ -> []

let spans_of_attrs attrs ~(loc : Location.t) =
  List.concat_map
    (fun attr ->
      List.map
        (fun rule ->
          { rule; first = loc.loc_start.pos_lnum; last = loc.loc_end.pos_lnum })
        (rules_of_attr attr))
    attrs

(* Typed-tree collector. Typedtree nodes carry the Parsetree
   attributes verbatim, so a span covers exactly the source lines of
   the attributed expression, binding or file. *)
let collect (str : Typedtree.structure) =
  let spans = ref [] in
  let add s = spans := s @ !spans in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          add
            (spans_of_attrs e.Typedtree.exp_attributes
               ~loc:e.Typedtree.exp_loc);
          Tast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          add
            (spans_of_attrs vb.Typedtree.vb_attributes
               ~loc:vb.Typedtree.vb_loc);
          Tast_iterator.default_iterator.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.Typedtree.str_desc with
          | Typedtree.Tstr_attribute attr ->
              (* Floating attribute: file-wide suppression. *)
              add
                (List.map
                   (fun rule -> { rule; first = 1; last = whole_file })
                   (rules_of_attr attr))
          | _ -> ());
          Tast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it str;
  !spans

let suppressed spans ~rule ~line =
  List.exists
    (fun s ->
      (s.rule = rule || s.rule = "all") && line >= s.first && line <= s.last)
    spans
