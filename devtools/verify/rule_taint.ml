(* retire-taint: a value passed to [retire] is dead to this thread; any
   later dereference of it through the plane is a static use-after-
   retire. (VBR's versioned reads make *racing* readers safe; the
   retiring thread itself reusing its stale reference is a plain bug
   the type system cannot see.)

   Intraprocedural part: an abstract interpretation over each function
   body in evaluation order, tracking the set of tainted local idents.
   [retire]'s node arguments (every unlabeled argument after the first,
   which is the plane/instance) taint the idents they mention; a plane
   dereference whose subject mentions a tainted ident is a finding.
   Branches fork the environment and rejoin by union, so a retire in
   one arm never poisons the sibling arm (that is what keeps the
   retire-then-recurse idiom of vbr_list's delete clean).

   Interprocedural part: per-function summaries -- which parameter
   positions a function (transitively) dereferences, and which it
   (transitively) retires -- computed to a fixpoint, then applied at
   call sites: passing a tainted value into a deref-ing position is a
   finding at the call; a call that retires its argument taints the
   caller's idents. This is what catches retire-then-deref split across
   a helper. [is_marked] is deliberately not a deref: VBR guarantees it
   is exact on retired nodes, and unlink-after-retire legitimately
   rechecks marks. *)

open Lint_core

let name = "retire-taint"

let doc =
  "a value that flowed into retire must not be dereferenced again by this \
   thread, across function boundaries"

(* Plane calls that dereference their node argument(s). *)
let deref_prims =
  [
    "get_next";
    "get_next_word";
    "get_next_packed";
    "get_next_raw";
    "get_birth";
    "get_key";
    "update";
    "mark";
    "refresh_next";
    "heal_stale_edge";
  ]

(* Guarded-plane word accesses: the subject expression is the deref. *)
let word_ops =
  [
    "Atomic.get";
    "Atomic.set";
    "Atomic.compare_and_set";
    "Atomic.exchange";
    "Atomic.fetch_and_add";
    "Access.get";
    "Access.set";
    "Access.compare_and_set";
    "Access.exchange";
    "Access.fetch_and_add";
  ]

let is_retire canon =
  Ast_util.is_qualified canon
  && List.mem (Ast_util.last_component canon) [ "retire"; "retire_ctx" ]

let is_deref_prim canon =
  Ast_util.is_qualified canon
  && List.mem (Ast_util.last_component canon) deref_prims

let is_word_op canon = Ast_util.suffix_matches canon ~suffixes:word_ops

type summary = { derefs : bool array; retires : bool array }

let empty_summary (f : Prog.fn) =
  let n = List.length f.params in
  { derefs = Array.make n false; retires = Array.make n false }

module S = Set.Make (Ident)

let mentions env e = List.exists (fun id -> S.mem id env) (Tast_util.idents_of e)

let param_positions (f : Prog.fn) e =
  (* parameter positions (0-based) whose ident appears in [e] *)
  let ids = Tast_util.idents_of e in
  List.mapi (fun i p -> (i, p)) f.params
  |> List.filter_map (fun (i, p) ->
         if List.exists (Ident.same p) ids then Some i else None)

(* retire's node arguments: unlabeled, all but the first (the plane). *)
let retire_node_args args =
  match List.filter (fun (lbl, _) -> lbl = "") args with
  | [] -> []
  | _plane :: nodes -> List.map snd nodes

let pat_idents pat =
  let acc = ref [] in
  (* the iterator's [pat] field is explicitly polymorphic over the
     pattern category; matching the value-only constructors refines it *)
  let visit : type k.
      Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun it pat ->
    (match pat.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
    | Typedtree.Tpat_alias (_, id, _) -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.pat it pat
  in
  let it = { Tast_iterator.default_iterator with pat = visit } in
  it.pat it pat;
  !acc

(* One pass over [f]'s body. [aliases_of] supplies the per-file alias
   table, [summaries] the current callee effects; [report] (when set)
   receives findings. Updates [f]'s own summary in place. *)
let analyze (p : Prog.t) ~aliases_of summaries ?report (f : Prog.fn) =
  let sum = summaries.(f.id) in
  let aliases = aliases_of f.file in
  let emit loc message =
    match report with
    | None -> ()
    | Some push ->
        push
          (Prog.finding ~rule:name ~file:f.file loc ~message
             ~hint:
               "re-read the link after retiring (the retired value is dead \
                to this thread); restructure so the retire is the last use")
  in
  let mark_param arr e =
    List.iter (fun i -> arr.(i) <- true) (param_positions f e)
  in
  let target_of canon =
    List.find_map
      (fun (s : Prog.site) ->
        match s.kind with
        | Call _ when s.canon = canon -> s.target
        | _ -> None)
      p.fn_sites.(f.id)
  in
  let taint_all env e =
    List.fold_left (fun env id -> S.add id env) env (Tast_util.idents_of e)
  in
  let rec walk env (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) ->
        let canon = Tast_util.canonical aliases path in
        let argl =
          List.filter_map
            (fun (lbl, a) -> Option.map (fun a -> (Prog.label_text lbl, a)) a)
            args
        in
        (* arguments evaluate before the call *)
        let env = List.fold_left (fun env (_, a) -> walk env a) env argl in
        apply_call env canon argl e.Typedtree.exp_loc
    | Texp_ifthenelse (c, t, e_opt) ->
        let env = walk env c in
        let env_t = walk env t in
        let env_e = match e_opt with Some e' -> walk env e' | None -> env in
        S.union env_t env_e
    | Texp_match (scrut, cases, _) ->
        let env = walk env scrut in
        List.fold_left
          (fun acc c -> S.union acc (walk env c.Typedtree.c_rhs))
          env cases
    | Texp_sequence (a, b) -> walk (walk env a) b
    | Texp_let (_, vbs, body) ->
        let env =
          List.fold_left
            (fun env vb ->
              let env = walk env vb.Typedtree.vb_expr in
              if mentions env vb.Typedtree.vb_expr then
                (* binding a tainted computation taints the bound idents *)
                List.fold_left
                  (fun env id -> S.add id env)
                  env
                  (pat_idents vb.Typedtree.vb_pat)
              else env)
            env vbs
        in
        walk env body
    | _ ->
        (* default: fold over immediate children in order (closures are
           walked as if executed here -- conservative, and exactly what
           the checkpoint-thunk idiom needs) *)
        List.fold_left walk env (Tast_util.sub_exprs e)
  and apply_call env canon argl loc =
    if is_retire canon then
      List.fold_left
        (fun env node ->
          mark_param sum.retires node;
          taint_all env node)
        env (retire_node_args argl)
    else if is_deref_prim canon then (
      (* the node is among the non-plane args; checking every arg is
         safe because the plane/ctx value is never tainted *)
      List.iter
        (fun (_, a) ->
          mark_param sum.derefs a;
          if mentions env a then
            emit loc
              (Printf.sprintf
                 "%s dereferences a value that already flowed into retire \
                  (static use-after-retire)"
                 canon))
        argl;
      env)
    else if is_word_op canon then (
      (match argl with
      | (_, subject) :: _ ->
          mark_param sum.derefs subject;
          if mentions env subject then
            emit loc
              (Printf.sprintf
                 "%s reads through a value that already flowed into retire \
                  (static use-after-retire)"
                 canon)
      | [] -> ());
      env)
    else
      match target_of canon with
      | Some g ->
          let callee = p.fns.(g) in
          let cs = summaries.(g) in
          let n = Array.length cs.derefs in
          List.fold_left
            (fun env (i, (_, a)) ->
              if i >= n then env
              else begin
                if cs.derefs.(i) then begin
                  mark_param sum.derefs a;
                  if mentions env a then
                    emit loc
                      (Printf.sprintf
                         "argument %d of %s is dereferenced inside it \
                          (defined at %s:%d), but the value already flowed \
                          into retire here (static use-after-retire across \
                          the call)"
                         (i + 1) canon callee.file
                         (Tast_util.line_of callee.loc))
                end;
                if cs.retires.(i) then begin
                  mark_param sum.retires a;
                  taint_all env a
                end
                else env
              end)
            env
            (List.mapi (fun i a -> (i, a)) argl)
      | None -> env
  in
  ignore (walk S.empty f.body)

let check (p : Prog.t) =
  let alias_cache = Hashtbl.create 8 in
  let aliases_of rel =
    match Hashtbl.find_opt alias_cache rel with
    | Some t -> t
    | None ->
        let t =
          match
            List.find_opt (fun (x : Cmt_load.file) -> x.rel = rel) p.files
          with
          | Some x -> Tast_util.collect_aliases x.str
          | None -> Hashtbl.create 1
        in
        Hashtbl.add alias_cache rel t;
        t
  in
  let summaries = Array.map empty_summary p.fns in
  let snapshot () =
    Array.map (fun s -> (Array.copy s.derefs, Array.copy s.retires)) summaries
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 20 do
    incr rounds;
    let before = snapshot () in
    Array.iter (fun f -> analyze p ~aliases_of summaries f) p.fns;
    changed := snapshot () <> before
  done;
  let findings = ref [] in
  let push f = findings := f :: !findings in
  Array.iter
    (fun (f : Prog.fn) ->
      match f.scope.kind with
      | Scope.Optimistic | Scope.Guarded ->
          analyze p ~aliases_of summaries ~report:push f
      | _ -> ())
    p.fns;
  List.sort_uniq Stdlib.compare (List.rev !findings)

(* retire-discipline, the lexical companion of retire-taint: a node may
   only be retired after its final unlink, i.e. after this operation won
   a logical-delete mark or an unlink CAS -- retiring a still-reachable
   node is the use-after-free the SMR schemes exist to prevent. So every
   [retire] must follow, in the same function, a mark/CAS-plane call
   (the witness). [dealloc] is the never-published fast path: it must
   follow an [alloc] in the same function. Module-level code counts as
   one function per file. *)
module Discipline = struct
  let name = "retire-discipline"

  let doc =
    "retire only after a mark/unlink CAS in the same function; dealloc only \
     after an alloc in the same function"

  let witnesses = [ "mark"; "update"; "cas_root"; "compare_and_set" ]

  let call_of ~qualified names (s : Prog.site) =
    match s.kind with
    | Call _ ->
        ((not qualified) || Ast_util.is_qualified s.canon)
        && List.mem (Ast_util.last_component s.canon) names
    | Ref -> false

  let group_findings ~file sites =
    let preceded pred (s : Prog.site) =
      List.exists
        (fun (w : Prog.site) -> pred w && not (Tast_util.pos_leq s.loc w.loc))
        sites
    in
    List.filter_map
      (fun (s : Prog.site) ->
        let flag message hint =
          Some (Prog.finding ~rule:name ~file s.loc ~message ~hint)
        in
        if
          is_retire s.canon
          && not (preceded (call_of ~qualified:false witnesses) s)
        then
          flag
            "retire without a preceding mark/CAS in the same function"
            "retire must follow the logical delete (mark) or unlink CAS \
             that made the node unreachable; restructure, or move the \
             retire next to its witness"
        else if
          call_of ~qualified:true [ "dealloc" ] s
          && not (preceded (call_of ~qualified:true [ "alloc"; "alloc_ctx" ]) s)
        then
          flag "dealloc of a node this function did not allocate"
            "dealloc is only for never-published nodes, local to the \
             allocating operation (alloc ... dealloc in one function); a \
             shared node must go through retire"
        else None)
      sites

  let check (p : Prog.t) =
    let policed kind = kind = Scope.Optimistic || kind = Scope.Guarded in
    List.concat_map
      (fun (f : Prog.fn) ->
        if policed f.scope.kind then
          group_findings ~file:f.file p.fn_sites.(f.id)
        else [])
      (Array.to_list p.fns)
    @ List.concat_map
        (fun (f : Cmt_load.file) ->
          if policed f.scope.kind then
            group_findings ~file:f.rel (Prog.toplevel_sites p f.rel)
          else [])
        p.files
end
