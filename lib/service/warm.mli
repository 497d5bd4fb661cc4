(** Warm incremental-session pool.

    The router's {!Satmap.Encoding.Session} keeps one solver loaded with
    the slice-independent encoding skeleton; within a request it is
    reused across slices and retries.  This pool extends the reuse
    across {e requests}: sessions are parked here keyed by a canonical
    (device, encoding-knobs, swap-budget) fingerprint, and the next
    request with the same fingerprint checks one out — its first block
    then skips skeleton emission too (the [encode.reused_clauses]
    metric counts the win; [service.warm_hits] / [service.warm_misses]
    count pool behaviour).

    A checked-out session is owned exclusively by one route: {!acquire}
    removes it from the pool, {!release} returns it.  Concurrent
    requests with the same key simply get distinct sessions (one warm,
    the rest fresh).  Reuse across {e mismatched} shapes is safe by
    construction — the session itself rebuilds its skeleton when the
    prepared block does not fit — so the key only governs hit rate, not
    soundness. *)

type t

val create : ?capacity:int -> ?window:int -> unit -> t
(** [capacity] (default 8) bounds parked sessions across all keys —
    each parked session pins a loaded solver's memory.  [window] is
    forwarded to {!Satmap.Encoding.Session.create} for sessions minted
    on a miss. *)

val key : device:Arch.Device.t -> config:Satmap.Router.config -> string
(** Canonical fingerprint: device topology digest, the config's encoding
    knobs ({!Canon.config_digest}), and its swap budget [n_swaps]. *)

val acquire : t -> key:string -> Satmap.Encoding.Session.t
(** Check out a parked session for [key], or mint a fresh one. *)

val release : t -> key:string -> Satmap.Encoding.Session.t -> unit
(** Return a session to the pool; dropped silently when the pool is at
    capacity. *)

val parked : t -> int
(** Sessions currently parked (for tests and introspection). *)
