(** JSON-lines request/response codec for [satmap serve].

    One request per line on stdin, one response per line on stdout.
    Responses may arrive out of request order (the pool is concurrent);
    the [id] field — echoed verbatim — is the client's correlation
    handle.

    Request object (only [qasm] is required):
    {v
    {"id": "r1", "qasm": "OPENQASM 2.0; ...", "device": "tokyo",
     "method": "sliced", "engine": "maxsat", "slice_size": 25,
     "n_swaps": 1, "timeout": 30.0, "noise": false, "cache": true,
     "stream": false}
    v}

    Success response:
    {v
    {"id": "r1", "status": "ok", "qasm": "...", "initial": [...],
     "final": [...], "swaps": 3, "added_cnots": 9, "depth": 17,
     "blocks": 2, "backtracks": 0, "proved_optimal": true,
     "maxsat_iterations": 5, "solver_calls": 6, "cache_hit": false,
     "coalesced": false, "time_s": 0.41}
    v}

    Error response:
    {v
    {"id": "r1", "status": "error", "error": "overloaded",
     "message": "queue full (capacity 64)"}
    v}

    Progress response (only under ["stream": true], zero or more before
    the final ok/error line; never terminal):
    {v
    {"id": "r1", "status": "progress", "block": 0, "iteration": 2,
     "cost": 3}
    v}

    On a cache hit, [qasm]/costs/stats describe the solve that produced
    the entry, with the initial/final maps translated to the request's
    qubit labels — the response is byte-identical to the cold one apart
    from [cache_hit] and [time_s]. *)

type method_ = Sliced | Monolithic | Cyclic | Portfolio

type request = {
  id : string;  (** echoed verbatim; [""] when absent *)
  qasm : string;
  device : string;  (** resolved via {!Arch.Topologies.by_name} *)
  method_ : method_;
  engine : string;
      (** routing engine from the [Engines] catalogue; every engine
          routes through the registry.  The default ["maxsat"] runs
          [method_] / [slice_size] with the serving hooks (block cache,
          warm sessions, progress); heuristic engines ignore all three.
          Unknown names answer [Bad_request] with the engine list.
          Absent on the wire means ["maxsat"], and the field is
          serialised only when non-default, so pre-engine clients and
          persisted caches interoperate.  Part of the cache key: replies
          never cross engines. *)
  slice_size : int option;
      (** [Sliced] (default [Router.default_slice_size]) and [Cyclic] *)
  n_swaps : int;
  timeout : float;  (** seconds; the job's deadline starts at submission *)
  noise : bool;  (** fidelity objective from synthetic calibration *)
  use_cache : bool;  (** consult/populate the result cache (default) *)
  stream : bool;
      (** push {!Progress_response} lines as the MaxSAT descent improves
          its bound (socket server only; default false) *)
}

val default_request : request
(** [qasm = ""]; fill it (and any overrides) with [{ default_request
    with ... }]. *)

type ok_payload = {
  ok_id : string;
  ok_qasm : string;  (** routed physical circuit, OpenQASM 2.0 *)
  ok_initial : int array;  (** logical qubit -> physical qubit *)
  ok_final : int array;
  ok_swaps : int;
  ok_added_cnots : int;
  ok_depth : int;
  ok_blocks : int;
  ok_backtracks : int;
  ok_proved_optimal : bool;
  ok_maxsat_iterations : int;
  ok_solver_calls : int;  (** optimizer invocations the solve paid for *)
  ok_cache_hit : bool;
  ok_coalesced : bool;
      (** answered by piggybacking on an identical in-flight solve
          (single-flight); [false] on the leader's own response *)
  ok_time : float;  (** seconds spent serving this request *)
}

type error_code =
  | Bad_request  (** malformed JSON or a missing/ill-typed field *)
  | Parse_error  (** the QASM payload does not parse *)
  | Unknown_device
  | Routing_failed  (** unsatisfiable / timeout / memory guard *)
  | Overloaded  (** bounded queue full — resubmit later *)
  | Deadline_exceeded  (** job expired before a worker picked it up *)

type response =
  | Ok_response of ok_payload
  | Error_response of { id : string; code : error_code; message : string }
  | Progress_response of {
      prog_id : string;
      prog_block : int;  (** slice index the router is solving *)
      prog_iteration : int;  (** MaxSAT descent iteration within it *)
      prog_cost : int;  (** cost of the model just found (per-block) *)
    }
      (** Intermediate line pushed under [stream]; a request always still
          terminates with exactly one ok/error line. *)

val error_code_name : error_code -> string

val method_name : method_ -> string
val method_of_name : string -> method_ option

val default_max_request_bytes : int
(** 1 MiB — the default request-size cap ({!parse_request}, the socket
    server's line reader). *)

val parse_request : ?max_bytes:int -> string -> (request, string) result
(** [max_bytes] (default {!default_max_request_bytes}) rejects oversized
    lines with an error message before JSON parsing. *)

val request_to_string : request -> string
(** One line, no embedded newlines; for clients and tests. *)

val response_to_string : response -> string
(** One line; field order is fixed so identical payloads are
    byte-identical. *)

val parse_response : string -> (response, string) result
(** Inverse of {!response_to_string}; for clients and tests. *)

val payload_to_json : ok_payload -> Obs.Json.t
val payload_of_json : Obs.Json.t -> ok_payload option
(** Cache persistence hooks ({!Cache.save}/{!Cache.load}). *)
