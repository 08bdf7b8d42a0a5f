module Make (V : Reclaim.Smr_intf.OPTIMISTIC) = struct
  module L = Vbr_list.Make (V)

  (* One backend handle and a flat array of bucket head-sentinel slots:
     an operation indexes the array and enters the bucket's list at its
     head, with no per-bucket record in between. *)
  type t = { vbr : V.t; heads : int array }

  let name = "hash/" ^ V.name

  let create vbr ~buckets =
    if buckets < 1 then invalid_arg "Vbr_hash.create: buckets < 1";
    let tail, tail_birth = L.make_tail vbr in
    {
      vbr;
      heads = Array.init buckets (fun _ -> L.make_head vbr ~tail ~tail_birth);
    }

  let head t key =
    Array.unsafe_get t.heads ((key land max_int) mod Array.length t.heads)

  let insert t ~tid key = L.insert_at t.vbr ~head:(head t key) ~tid key
  let delete t ~tid key = L.delete_at t.vbr ~head:(head t key) ~tid key
  let contains t ~tid key = L.contains_at t.vbr ~head:(head t key) ~tid key

  let to_list t =
    Array.to_list t.heads
    |> List.concat_map (fun head -> L.to_list_at t.vbr ~head)
    |> List.sort compare

  let size t = List.length (to_list t)
end

include Make (Vbr_core.Vbr)
