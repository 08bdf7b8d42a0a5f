(* raw-atomic, the Padded exemption: an access routed through
   [Padded.cell] -- the identity marker for padded plane bookkeeping --
   is not a node word, so neither spelling below is flagged and neither
   carries an allow attribute. [Memsim] stands in for the real
   library. *)

module Memsim = struct
  module Padded = struct
    let cell (c : 'a Atomic.t) = c
  end
end

module Padded = Memsim.Padded

type t = { hits : int Atomic.t }

let peek t = Atomic.get (Padded.cell t.hits)
let bump t = Atomic.incr (Memsim.Padded.cell t.hits)
