(* Stub plane signatures the verify fixtures are functorized over, so
   their call sites look exactly like the real structures' (the plane is
   a functor parameter V/R and the verifier matches canonical-name
   suffixes, never a concrete implementation module). *)

module type OPT = sig
  type t
  type ctx

  val ctx : t -> tid:int -> ctx
  val checkpoint : ctx -> (unit -> 'a) -> 'a
  val alloc : ctx -> int * int
  val commit_alloc : ctx -> int -> unit
  val refresh_epoch : ctx -> unit
  val get_key : ctx -> int -> int
  val get_next : ctx -> int -> int * int
  val update : ctx -> int -> new_:int -> bool
  val retire : ctx -> int * int -> unit
end

module type GUARD = sig
  type t

  val begin_op : t -> tid:int -> unit
  val end_op : t -> tid:int -> unit
  val protect : t -> tid:int -> int -> int
  val alloc : t -> tid:int -> level:int -> key:int -> int
  val dealloc : t -> tid:int -> int -> unit
  val retire : t -> tid:int -> int -> unit
end
