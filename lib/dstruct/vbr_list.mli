(** The optimistic-reclamation lock-free linked list (the paper's
    Appendix C), as a functor over {!Reclaim.Smr_intf.OPTIMISTIC}.

    Structure of the integration, per Figures 3–6:
    - [find] is the auxiliary traversal: it trims whole marked segments
      with a single versioned [update] and never installs checkpoints
      (all its updates are rollback-safe), so any [Rollback] it raises
      propagates to the enclosing operation's checkpoint.
    - [insert] installs a checkpoint on entry (Figure 4). A failed
      publishing CAS retires the fresh node (line 15) and retries.
    - [delete] installs a checkpoint on entry and a second one right after
      the successful [mark] — the mark is the linearization point and is
      rollback-unsafe, so the physical unlink, the clean-up [find] and the
      [retire] all run under the inner checkpoint (Figure 5).
    - [contains] is the Figure 6 single-pass traversal: no updates, one
      checkpoint on entry; not wait-free (rollbacks restart it). *)

module Make (V : Reclaim.Smr_intf.OPTIMISTIC) : sig
  type t

  val create : V.t -> t
  (** A new empty list on the given backend instance (allocates the
      head/tail sentinels from thread 0's context). *)

  val make_tail : V.t -> int * int
  (** Allocate a tail sentinel; returns (index, birth). *)

  (** {2 Head-handle entry points}

      The set operations on the list whose head sentinel is named by
      [head]: a packed word ({!Memsim.Packed}) whose index is the head
      sentinel's slot and whose version is its birth. Sentinels are
      never retired, so the handle stays exact for the list's life and
      an operation never reads the head's birth word. A handle built
      from {!Reclaim.Smr_intf.OPTIMISTIC.alloc_sentinels} names an empty
      list (hash buckets share one tail). The [t] operations of
      {!Set_intf.SET} are these applied to the list's own head. *)

  val insert_at : V.t -> head:Memsim.Packed.t -> tid:int -> int -> bool
  val delete_at : V.t -> head:Memsim.Packed.t -> tid:int -> int -> bool
  val contains_at : V.t -> head:Memsim.Packed.t -> tid:int -> int -> bool

  val to_list_at : V.t -> head:Memsim.Packed.t -> int list
  (** Quiescent only: the chain's live keys in list order. *)

  include Set_intf.SET with type t := t
end

include module type of Make (Vbr_core.Vbr)
(** The canonical instantiation over {!Vbr_core.Vbr} ("list/VBR"). *)
