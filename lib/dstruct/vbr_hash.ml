module Make (V : Reclaim.Smr_intf.OPTIMISTIC) = struct
  module L = Vbr_list.Make (V)
  module P = Memsim.Packed

  (* The bucket head sentinels are one contiguous slot range carved at
     creation, all born in the same epoch and never retired: bucket [b]'s
     head is slot [base + b] with birth [head_birth]. Reaching a bucket is
     arithmetic, so an operation's first dependent load is the head node
     itself — there is no per-table array of head slots in between. *)
  type t = { vbr : V.t; base : int; buckets : int; head_birth : int }

  let name = "hash/" ^ V.name

  let create vbr ~buckets =
    if buckets < 1 then invalid_arg "Vbr_hash.create: buckets < 1";
    let tail, tail_birth = L.make_tail vbr in
    let base, head_birth =
      V.alloc_sentinels vbr ~n:buckets ~key:Set_intf.min_key_bound ~next:tail
        ~next_birth:tail_birth
    in
    { vbr; base; buckets; head_birth }

  let head t key =
    P.pack_unchecked ~marked:false
      ~index:(t.base + ((key land max_int) mod t.buckets))
      ~version:t.head_birth

  let insert t ~tid key = L.insert_at t.vbr ~head:(head t key) ~tid key
  let delete t ~tid key = L.delete_at t.vbr ~head:(head t key) ~tid key
  let contains t ~tid key = L.contains_at t.vbr ~head:(head t key) ~tid key

  let to_list t =
    List.init t.buckets (fun b -> L.to_list_at t.vbr ~head:(head t b))
    |> List.concat |> List.sort compare

  let size t = List.length (to_list t)
end

include Make (Vbr_core.Vbr)
