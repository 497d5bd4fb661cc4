(* @server-smoke: end-to-end validation of the socket serving tier.

   Checks, in order:
   1. Single-flight coalescing: with one pool worker occupied by a
      blocker solve, N identical concurrent requests from N connections
      produce exactly one engine solve — one leader reply
      (coalesced = false), N-1 follower replies (coalesced = true), all
      agreeing on the physical circuit, and exactly one request-cache
      miss beyond the blocker's.
   2. Shard-count invariance: one request stream (duplicates + qubit
      renames included) answered by a 1-shard server directly and by a
      2-shard set behind the shard router yields byte-identical
      response lines modulo the timing field.
   3. Wrong-shard rejection: a key sent directly to the shard that does
      not own it is answered with a bad_request naming the owner.
   4. Oversized requests are rejected with a bounded read (the
      connection survives and answers a well-formed follow-up).
   5. A mid-line EOF (unterminated trailing fragment) is answered with
      a bad_request error, not a hang or a crash.

   Exit code 1 on any violation, so `dune runtest` fails. *)

module P = Service.Protocol

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("server-smoke: " ^ msg);
      exit 1)
    fmt

let metric name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some v -> int_of_float v
  | None -> 0

let send oc req =
  output_string oc (P.request_to_string req);
  output_char oc '\n';
  flush oc

(* Read lines until the terminal ok/error response (skipping progress). *)
let rec recv ic =
  match P.parse_response (input_line ic) with
  | Ok (P.Progress_response _) -> recv ic
  | Ok r -> r
  | Error e -> fail "response does not parse: %s" e
  | exception End_of_file -> fail "connection closed before a response"

let ok_of = function
  | P.Ok_response p -> p
  | P.Error_response { code; message; _ } ->
    fail "expected ok response, got %s: %s" (P.error_code_name code) message
  | P.Progress_response _ -> fail "unexpected progress line"

let err_of = function
  | P.Error_response { code; message; _ } -> (code, message)
  | P.Ok_response _ -> fail "expected an error response, got ok"
  | P.Progress_response _ -> fail "unexpected progress line"

let stable_line (p : P.ok_payload) =
  P.response_to_string (P.Ok_response { p with P.ok_time = 0. })

let request ~id ~qasm =
  { P.default_request with id; qasm; device = "tokyo"; timeout = 30.0 }

let qasm_of c = Quantum.Qasm.to_string c

let () =
  Obs.Metrics.reset ();
  let dir = Filename.temp_file "server_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock name = Filename.concat dir name in

  (* Distinct base circuits; [hard] takes long enough to keep a worker
     busy while follow-up requests pile onto the flight table. *)
  let mk seed gates =
    Workloads.Generators.local_random (Rng.create seed) ~n:6 ~gates
      ~locality:0.8
  in
  let c1 = mk 101 12 and c2 = mk 102 12 and c3 = mk 103 12 in
  let _, hard = Qaoa.Build.maxcut_3_regular ~seed:7 ~n:6 ~cycles:3 in

  (* ---- 1. single-flight coalescing -------------------------------- *)
  let engine = Service.Engine.create ~workers:1 ~queue_capacity:32 () in
  let server =
    Serving.Server.start engine (Serving.Server.Unix_path (sock "solo.sock"))
  in
  let addr = Serving.Server.address server in
  let n_clients = 4 in
  let blocker = Serving.Server.connect addr in
  let misses_before = Service.Cache.misses (Service.Engine.serve_cache engine) in
  (* The blocker's own budget is short of the burst's: a queued request's
     deadline runs from its arrival, so a blocker that used the burst's
     whole 30 s (the tied QAOA body takes 20-35 s to prove on a 2-core
     machine) left the leader ~0.15 s to solve, and it timed out.  Cut
     short, the blocker still answers ok with its best routing so far. *)
  send (snd blocker)
    {
      (request ~id:"blocker" ~qasm:(qasm_of hard)) with
      method_ = P.Cyclic;
      timeout = 5.0;
    };
  (* Give the blocker a head start so it owns the single worker before
     the identical burst arrives. *)
  Thread.delay 0.15;
  let burst = Array.init n_clients (fun _ -> Serving.Server.connect addr) in
  Array.iteri
    (fun i (_, oc) ->
      send oc (request ~id:(Printf.sprintf "burst-%d" i) ~qasm:(qasm_of c1)))
    burst;
  let replies =
    Array.map (fun (ic, _) -> ok_of (recv ic)) burst |> Array.to_list
  in
  let _ = ok_of (recv (fst blocker)) in
  let leaders = List.filter (fun p -> not p.P.ok_coalesced) replies in
  let followers = List.filter (fun p -> p.P.ok_coalesced) replies in
  if List.length leaders <> 1 then
    fail "expected exactly 1 leader reply, got %d" (List.length leaders);
  if List.length followers <> n_clients - 1 then
    fail "expected %d coalesced replies, got %d" (n_clients - 1)
      (List.length followers);
  let lead = List.hd leaders in
  List.iter
    (fun p ->
      if p.P.ok_qasm <> lead.P.ok_qasm then
        fail "coalesced reply disagrees on the physical circuit";
      if
        stable_line { p with P.ok_id = lead.P.ok_id; ok_coalesced = false }
        <> stable_line lead
      then fail "coalesced reply differs beyond id/coalesced/time")
    followers;
  (* Blocker miss + one leader miss; the followers never touched the
     cache — the burst cost exactly one engine solve. *)
  let misses =
    Service.Cache.misses (Service.Engine.serve_cache engine) - misses_before
  in
  if misses <> 2 then
    fail "expected 2 cache misses (blocker + one leader), got %d" misses;
  if metric "server.flight.coalesced" <> n_clients - 1 then
    fail "server.flight.coalesced = %d, expected %d"
      (metric "server.flight.coalesced")
      (n_clients - 1);
  Array.iter Serving.Server.disconnect burst;
  Serving.Server.disconnect blocker;

  (* ---- 4. oversized request (same server) ------------------------- *)
  let small =
    Serving.Server.start ~max_request_bytes:4096 engine
      (Serving.Server.Unix_path (sock "small.sock"))
  in
  let (ic, oc) = Serving.Server.connect (Serving.Server.address small) in
  output_string oc (String.make 8192 'x');
  output_char oc '\n';
  flush oc;
  (match err_of (recv ic) with
  | P.Bad_request, msg ->
    if not (String.length msg > 0) then fail "oversized: empty message"
  | code, _ ->
    fail "oversized request answered %s, not bad_request"
      (P.error_code_name code));
  (* The connection must survive the oversized line. *)
  send oc (request ~id:"after-oversize" ~qasm:(qasm_of c1));
  let p = ok_of (recv ic) in
  if p.P.ok_id <> "after-oversize" then fail "post-oversize reply id mismatch";
  if not p.P.ok_cache_hit then
    fail "post-oversize repeat of the burst circuit missed the cache";
  Serving.Server.disconnect (ic, oc);

  (* ---- 5. mid-line EOF -------------------------------------------- *)
  let (ic, oc) = Serving.Server.connect (Serving.Server.address small) in
  output_string oc "{\"qasm\": \"OPENQASM";
  flush oc;
  Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_SEND;
  (match err_of (recv ic) with
  | P.Bad_request, _ -> ()
  | code, _ ->
    fail "mid-line EOF answered %s, not bad_request" (P.error_code_name code));
  Serving.Server.disconnect (ic, oc);
  Serving.Server.stop small;
  Serving.Server.stop server;
  Service.Engine.shutdown engine;

  (* ---- 2. shard-count invariance ---------------------------------- *)
  (* One deterministic sequential stream: distinct circuits, an exact
     duplicate, and a qubit-renamed duplicate. *)
  let renamed =
    let n = Quantum.Circuit.n_qubits c2 in
    Quantum.Circuit.relabel_qubits c2 (fun q -> n - 1 - q)
  in
  let stream_reqs =
    [
      request ~id:"t1" ~qasm:(qasm_of c1);
      request ~id:"t2" ~qasm:(qasm_of c2);
      request ~id:"t3" ~qasm:(qasm_of c1);
      request ~id:"t4" ~qasm:(qasm_of renamed);
      request ~id:"t5" ~qasm:(qasm_of c3);
    ]
  in
  let run_stream addr =
    let conn = Serving.Server.connect addr in
    let replies =
      List.map
        (fun r ->
          send (snd conn) r;
          ok_of (recv (fst conn)))
        stream_reqs
    in
    Serving.Server.disconnect conn;
    replies
  in
  let engine1 = Service.Engine.create ~workers:1 () in
  let one =
    Serving.Server.start ~shard:(0, 1) engine1
      (Serving.Server.Unix_path (sock "one.sock"))
  in
  let direct = run_stream (Serving.Server.address one) in
  Serving.Server.stop one;
  Service.Engine.shutdown engine1;

  let engine_a = Service.Engine.create ~workers:1 () in
  let engine_b = Service.Engine.create ~workers:1 () in
  let shard_a =
    Serving.Server.start ~shard:(0, 2) engine_a
      (Serving.Server.Unix_path (sock "a.sock"))
  in
  let shard_b =
    Serving.Server.start ~shard:(1, 2) engine_b
      (Serving.Server.Unix_path (sock "b.sock"))
  in
  let router =
    Serving.Shard_router.start
      ~backends:
        [ Serving.Server.address shard_a; Serving.Server.address shard_b ]
      (Serving.Server.Unix_path (sock "router.sock"))
  in
  let routed = run_stream (Serving.Shard_router.address router) in
  List.iter2
    (fun (d : P.ok_payload) (r : P.ok_payload) ->
      if stable_line d <> stable_line r then
        fail "shard-count variance on id %s:@\n  1 shard: %s@\n  2 shards: %s"
          d.P.ok_id (stable_line d) (stable_line r))
    direct routed;
  if metric "shard_router.forwarded" < List.length stream_reqs then
    fail "router forwarded only %d of %d requests"
      (metric "shard_router.forwarded")
      (List.length stream_reqs);

  (* ---- 3. wrong-shard rejection ----------------------------------- *)
  let key =
    match Service.Engine.canonical_key (request ~id:"w" ~qasm:(qasm_of c1)) with
    | Ok k -> k
    | Error _ -> fail "canonical_key failed on a well-formed request"
  in
  let ring = Serving.Shard.create 2 in
  let owner = Serving.Shard.owner ring key in
  let wrong_addr =
    Serving.Server.address (if owner = 0 then shard_b else shard_a)
  in
  let conn = Serving.Server.connect wrong_addr in
  send (snd conn) (request ~id:"w" ~qasm:(qasm_of c1));
  (match err_of (recv (fst conn)) with
  | P.Bad_request, msg ->
    let has_wrong_shard =
      String.length msg >= 11 && String.sub msg 0 11 = "wrong shard"
    in
    if not has_wrong_shard then
      fail "wrong-shard rejection message unexpected: %s" msg
  | code, _ ->
    fail "wrong-shard request answered %s, not bad_request"
      (P.error_code_name code));
  Serving.Server.disconnect conn;
  Serving.Shard_router.stop router;
  Serving.Server.stop shard_a;
  Serving.Server.stop shard_b;
  Service.Engine.shutdown engine_a;
  Service.Engine.shutdown engine_b;

  (* Best-effort cleanup; stop already unlinked the socket paths. *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  print_endline
    "server-smoke: ok (single-flight, shard invariance, wrong-shard \
     rejection, oversized line, mid-line EOF)"
