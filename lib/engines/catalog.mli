(** Builtin engine catalogue and name table.

    Builtins: [maxsat] (the paper's MaxSAT router, every SATMAP method),
    [sabre],
    [astar], [tket], [hybrid], [swap_strategy] and [qap]. *)

val register : Registry.t -> unit
(** Add or replace an engine (extension point; latest wins). *)

val find : string -> Registry.t option
val all : unit -> Registry.t list  (** sorted by name *)

val names : unit -> string list

val route :
  engine:string ->
  Arch.Device.t ->
  Quantum.Circuit.t ->
  Registry.config ->
  Registry.outcome
(** Look up by name and {!Registry.run}; unknown names return [Error]
    with the available-engine list. *)
