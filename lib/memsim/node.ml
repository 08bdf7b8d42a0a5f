type t = {
  mutable link0 : int;
  mutable key : int;
  birth : int Atomic.t;
  retire : int Atomic.t;
  upper : int Atomic.t array;
}

let no_epoch = -1
let no_upper : int Atomic.t array = [||]

let make ~level =
  if level < 1 then invalid_arg "Node.make: level must be >= 1";
  {
    link0 = Packed.null;
    key = 0;
    birth = Atomic.make 0;
    retire = Atomic.make no_epoch;
    upper =
      (if level = 1 then no_upper
       else Array.init (level - 1) (fun _ -> Atomic.make Packed.null));
  }

(* The one cast of the layout. Every [Atomic] primitive of OCaml 5
   ([%atomic_load], [%atomic_cas], [%atomic_exchange],
   [%atomic_fetch_add]) operates on field 0 of the block it is given and
   nothing else, and an ['a Atomic.t] is itself a one-field mutable
   block. A node is a block whose field 0 is the mutable immediate
   [link0], so viewing the node as an [int Atomic.t] makes those
   primitives act on [link0] with the same atomicity and ordering as on
   a real [Atomic.t]. The field only ever holds an immediate, so the
   write barrier the primitives run has nothing to record. The other
   fields are never reached through the view. *)
let[@inline] next0 (n : t) : int Atomic.t = Obj.magic n

let[@inline] level n = 1 + Array.length n.upper

let[@inline] word n lvl =
  if lvl = 0 then next0 n else Array.get n.upper (lvl - 1)

let iter_words n f =
  f (next0 n);
  Array.iter f n.upper

let pp ppf n =
  Format.fprintf ppf "{key=%d; level=%d; birth=%d; retire=%d; next0=%a}" n.key
    (level n) (Atomic.get n.birth) (Atomic.get n.retire) Packed.pp
    (Atomic.get (next0 n))
