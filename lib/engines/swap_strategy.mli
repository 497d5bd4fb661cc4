(** Swap-strategy routing for commuting-gate circuits (Matsuo et al.,
    arXiv 2212.05666): SAT subgraph-isomorphism initial mapping into the
    accumulated adjacency after l swap-strategy layers, binary search on
    l, then greedy commuting-aware emission.  The output may reorder
    mutually commuting (Z-diagonal) gates; the verifier's commuting
    relaxation accepts exactly this. *)

val supported : Quantum.Circuit.t -> bool
(** True when every two-qubit gate is Z-diagonal (Cz/Rzz). *)

val strategy : Arch.Device.t -> (int * int) list array
(** The swap strategy itself: greedy edge-coloring rounds of the device
    graph, applied cyclically. *)

val route :
  Arch.Device.t ->
  Quantum.Circuit.t ->
  Registry.config ->
  (Satmap.Routed.t * Satmap.Router.stats option, string) result
(** Errors on unsupported (non-commuting) circuits rather than falling
    back silently. *)
