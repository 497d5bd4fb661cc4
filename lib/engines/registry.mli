(** The engine contract: one uniform route signature over every routing
    path in the repo, with capability flags and Obs spans.  {!run} is the
    one way the CLI, the serve tier, bench and the differential harness
    route: the [maxsat] engine runs every SATMAP method
    ({!Satmap.Router.method_}) with the serving hooks, the heuristic
    engines ignore the method.  Builtin engines and the name table live in
    {!Catalog}. *)

(** Capability flags, advertised per engine. *)
type caps = {
  optimal : bool;
      (** can prove swap-count optimality (sliced runs prove only local
          optimality; the per-run truth is {!meta.m_optimal}) *)
  anytime : bool;
      (** improves under a deadline rather than all-or-nothing *)
  commuting_only : bool;
      (** requires every two-qubit gate to be Z-diagonal (Cz/Rzz) *)
  reorders_commuting : bool;
      (** may emit commuting gates out of program order — solves a
          relaxation, so the order-preserving MaxSAT optimum is not a
          lower bound for it *)
  accepts_seed : bool;  (** honours [config.router.initial_map] *)
  places : bool;  (** exposes a standalone placement ({!t.place}) *)
  router_hooks : bool;
      (** honours the [Router.config] serving hooks (block cache, warm
          session, progress, solver jobs, certify, lint): a caller only
          needs to check out a warm session for such an engine *)
}

type config = {
  router : Satmap.Router.config;
      (** budget ([timeout]), objective, [n_swaps], [initial_map],
          [verify] and the serving hooks; heuristic engines read only the
          timeout and the initial map *)
  method_ : Satmap.Router.method_;  (** the SATMAP method [maxsat] runs *)
  seed : int;  (** heuristic tie-breaking seed *)
}

val default_config : config
(** [Router.default_config] (30 s, verified), sliced at
    [Router.default_slice_size], seed 1. *)

type meta = {
  m_engine : string;
  m_time : float;  (** wall-clock seconds inside the engine *)
  m_optimal : bool;  (** the reported cost is a proved optimum *)
  m_stats : Satmap.Router.stats option;
      (** the MaxSAT route's stats; [None] for heuristic engines *)
}

type outcome = (Satmap.Routed.t * meta, string) result

type t = {
  name : string;
  description : string;
  caps : caps;
  route :
    Arch.Device.t ->
    Quantum.Circuit.t ->
    config ->
    (Satmap.Routed.t * Satmap.Router.stats option, string) result;
      (** raw route; a MaxSAT engine returns its route's stats, whose
          [proved_optimal] becomes {!meta.m_optimal} (an engine without
          stats never claims a proved optimum) *)
  place : (Arch.Device.t -> Quantum.Circuit.t -> config -> int array) option;
}

val run : t -> Arch.Device.t -> Quantum.Circuit.t -> config -> outcome
(** The single entry point callers should use: wraps the engine's raw
    [route] in an [engines.route] Obs span, times it, verifies the
    output once with {!Satmap.Verifier} when [config.router.verify], and
    converts escaped [Failure]/[Invalid_argument] into [Error], prefixed
    with the engine name. *)
