(* The engine contract: one uniform signature over every routing path in
   the repo — the MaxSAT routers, the heuristic baselines, and the new
   swap-strategy and QAP engines — so callers (CLI, serve tier, bench,
   differential harness) select a router by name instead of hard-wiring a
   module.

   Engines are pure values; the mutable name table and the builtin
   catalogue live in [Catalog].  [run] is the single entry point callers
   should use: it wraps the engine's raw route in an Obs span, times it,
   verifies the output against the original circuit when asked, and
   converts escaped exceptions into [Error] so one misbehaving engine
   cannot take down a differential run. *)

type caps = {
  optimal : bool;
      (** can prove swap-count optimality (reported per-run in
          {!meta.m_optimal}; sliced runs only prove local optimality) *)
  anytime : bool;  (** improves under a deadline rather than all-or-nothing *)
  commuting_only : bool;
      (** requires every two-qubit gate to be Z-diagonal (Cz/Rzz) *)
  reorders_commuting : bool;
      (** may emit commuting gates out of program order: solves a
          relaxation of the order-preserving problem, so the MaxSAT
          optimum is not a lower bound for it (see [Differential]) *)
  accepts_seed : bool;  (** honours [config.router.initial_map] *)
  places : bool;  (** exposes a standalone placement ({!t.place}) *)
  router_hooks : bool;
      (** honours the [Router.config] serving hooks (block cache, warm
          session, progress, solver jobs, certify, lint) *)
}

type config = {
  router : Satmap.Router.config;
  method_ : Satmap.Router.method_;  (** the SATMAP method [maxsat] runs *)
  seed : int;  (** heuristic tie-breaking seed *)
}

let default_config =
  {
    router = Satmap.Router.default_config;
    method_ = Satmap.Router.Sliced Satmap.Router.default_slice_size;
    seed = 1;
  }

type meta = {
  m_engine : string;
  m_time : float;  (** wall-clock seconds inside the engine *)
  m_optimal : bool;  (** the reported cost is a proved optimum *)
  m_stats : Satmap.Router.stats option;  (** the MaxSAT route's stats *)
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
      (** raw route, with the MaxSAT route's stats.  Call through {!run},
          which adds the span, timing, verification and exception
          guard. *)
  place : (Arch.Device.t -> Quantum.Circuit.t -> config -> int array) option;
}

let m_routes = Obs.Metrics.counter "engines.routes"
let m_failures = Obs.Metrics.counter "engines.failures"

let run engine device circuit config : outcome =
  Obs.Trace.with_span "engines.route"
    ~args:
      [
        ("engine", Obs.Trace.Str engine.name);
        ("n_qubits", Obs.Trace.Int (Quantum.Circuit.n_qubits circuit));
        ("n_gates", Obs.Trace.Int (Quantum.Circuit.length circuit));
      ]
  @@ fun () ->
  Obs.Metrics.incr m_routes;
  let start = Unix.gettimeofday () in
  let result =
    match engine.route device circuit config with
    | result -> result
    | exception Failure msg -> Error msg
    | exception Invalid_argument msg -> Error msg
  in
  let elapsed = Unix.gettimeofday () -. start in
  match result with
  | Error msg ->
    Obs.Metrics.incr m_failures;
    Error (Printf.sprintf "%s: %s" engine.name msg)
  | Ok (routed, stats) -> (
    match
      if not config.router.verify then []
      else Satmap.Verifier.check ~original:circuit routed
    with
    | _ :: _ as failures ->
      Obs.Metrics.incr m_failures;
      Error
        (Printf.sprintf "%s: verifier rejected output: %s" engine.name
           (String.concat "; "
              (List.map Satmap.Verifier.failure_to_string failures)))
    | [] ->
      Ok
        ( routed,
          {
            m_engine = engine.name;
            m_time = elapsed;
            m_optimal =
              (match stats with Some s -> s.proved_optimal | None -> false);
            m_stats = stats;
          } ))
