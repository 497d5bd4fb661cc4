let m_hits = Obs.Metrics.counter "service.warm_hits"
let m_misses = Obs.Metrics.counter "service.warm_misses"

type t = {
  mutex : Mutex.t;
  parked : (string, Satmap.Encoding.Session.t list) Hashtbl.t;
  mutable count : int;
  capacity : int;
  window : int;
}

let create ?(capacity = 8) ?(window = 16) () =
  if capacity < 0 then invalid_arg "Warm.create: negative capacity";
  {
    mutex = Mutex.create ();
    parked = Hashtbl.create 16;
    count = 0;
    capacity;
    window;
  }

let key ~device ~(config : Satmap.Router.config) =
  Canon.digest_parts
    [
      "satmap-warm/v1";
      Canon.device_digest device;
      Canon.config_digest config;
      string_of_int config.n_swaps;
    ]

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let acquire t ~key =
  let found =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.parked key with
        | Some (s :: rest) ->
          Hashtbl.replace t.parked key rest;
          t.count <- t.count - 1;
          Some s
        | Some [] | None -> None)
  in
  match found with
  | Some s ->
    Obs.Metrics.incr m_hits;
    s
  | None ->
    Obs.Metrics.incr m_misses;
    Satmap.Encoding.Session.create ~window:t.window ()

let release t ~key session =
  (* Park a recipe, not a live solver: freezing sheds learnt clauses,
     saved phases and activation variables, so the next request that
     thaws this session answers byte-identically to a cold engine —
     the serving tier's shard-count-invariance contract. *)
  Satmap.Encoding.Session.freeze session;
  with_lock t (fun () ->
      if t.count < t.capacity then begin
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt t.parked key)
        in
        Hashtbl.replace t.parked key (session :: existing);
        t.count <- t.count + 1
      end)

let parked t = with_lock t (fun () -> t.count)
