(* lib/service: canonicalization, the LRU cache, the worker pool, the
   JSON-lines protocol, and the engine end-to-end over the circuits in
   examples/qasm/ (declared as dune deps of this test). *)

let tokyo = Arch.Topologies.tokyo ()

(* ------------------------------------------------------------------ *)
(* Canon *)

let test_permutation_is_permutation () =
  let c = Quantum.Qasm.of_file "../examples/qasm/adder_slice.qasm" in
  let perm = Service.Canon.permutation c in
  let seen = Array.make (Array.length perm) false in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in range" true (p >= 0 && p < Array.length perm);
      Alcotest.(check bool) "no duplicate" false seen.(p);
      seen.(p) <- true)
    perm

let test_canonical_collides_renamed () =
  let c = Quantum.Qasm.of_file "../examples/qasm/qaoa_ring6.qasm" in
  let n = Quantum.Circuit.n_qubits c in
  let renamed = Quantum.Circuit.relabel_qubits c (fun q -> (q + 2) mod n) in
  let _, canon_a = Service.Canon.canonical c in
  let _, canon_b = Service.Canon.canonical renamed in
  Alcotest.(check string)
    "same canonical digest"
    (Service.Canon.circuit_digest canon_a)
    (Service.Canon.circuit_digest canon_b);
  (* A genuinely different circuit must not collide. *)
  let other = Quantum.Qasm.of_file "../examples/qasm/ghz4.qasm" in
  let _, canon_c = Service.Canon.canonical other in
  Alcotest.(check bool)
    "different circuits differ" false
    (Service.Canon.circuit_digest canon_a
    = Service.Canon.circuit_digest canon_c)

let test_perm_roundtrip () =
  let c = Quantum.Qasm.of_file "../examples/qasm/star_hub.qasm" in
  let perm = Service.Canon.permutation c in
  let arr = Array.init (Array.length perm) (fun i -> 10 * i) in
  Alcotest.(check (array int))
    "unapply . apply = id" arr
    (Service.Canon.apply_perm perm (Service.Canon.unapply_perm perm arr));
  Alcotest.(check (array int))
    "apply . unapply = id" arr
    (Service.Canon.unapply_perm perm (Service.Canon.apply_perm perm arr))

let test_digest_parts_no_concat_collision () =
  Alcotest.(check bool)
    "length-prefixed parts" false
    (Service.Canon.digest_parts [ "ab"; "c" ]
    = Service.Canon.digest_parts [ "a"; "bc" ])

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_lru_eviction () =
  let c = Service.Cache.create ~name:"test.cache_a" ~capacity:2 () in
  Service.Cache.add c "k1" 1;
  Service.Cache.add c "k2" 2;
  ignore (Service.Cache.find c "k1");
  (* k1 refreshed, so k2 is now LRU *)
  Service.Cache.add c "k3" 3;
  Alcotest.(check (option int)) "k1 survives" (Some 1) (Service.Cache.find c "k1");
  Alcotest.(check (option int)) "k2 evicted" None (Service.Cache.find c "k2");
  Alcotest.(check (option int)) "k3 present" (Some 3) (Service.Cache.find c "k3");
  Alcotest.(check int) "one eviction" 1 (Service.Cache.evictions c);
  Alcotest.(check int) "length" 2 (Service.Cache.length c)

let test_cache_counters () =
  let c = Service.Cache.create ~name:"test.cache_b" ~capacity:4 () in
  Service.Cache.add c "k" 7;
  ignore (Service.Cache.find c "k");
  ignore (Service.Cache.find c "absent");
  Alcotest.(check int) "hits" 1 (Service.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Service.Cache.misses c)

let test_cache_save_load () =
  let c = Service.Cache.create ~name:"test.cache_c" ~capacity:4 () in
  Service.Cache.add c "one" 1;
  Service.Cache.add c "two" 2;
  let path = Filename.temp_file "service_cache" ".json" in
  let encode v = Obs.Json.Num (float_of_int v) in
  let decode j = Option.map int_of_float (Obs.Json.number_value j) in
  Service.Cache.save ~encode c path;
  let fresh = Service.Cache.create ~name:"test.cache_d" ~capacity:4 () in
  (match Service.Cache.load ~decode fresh path with
  | Ok n -> Alcotest.(check int) "restored both entries" 2 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "value one" (Some 1) (Service.Cache.find fresh "one");
  Alcotest.(check (option int)) "value two" (Some 2) (Service.Cache.find fresh "two");
  Sys.remove path

let test_cache_save_is_atomic () =
  (* [save] goes through temp + rename: overwriting an existing file
     leaves no .tmp droppings, and the result is loadable. *)
  let c = Service.Cache.create ~name:"test.cache_e" ~capacity:4 () in
  Service.Cache.add c "k" 9;
  let path = Filename.temp_file "service_cache" ".json" in
  let encode v = Obs.Json.Num (float_of_int v) in
  let decode j = Option.map int_of_float (Obs.Json.number_value j) in
  Service.Cache.save ~encode c path;
  Service.Cache.save ~encode c path;
  Alcotest.(check bool)
    "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  let fresh = Service.Cache.create ~name:"test.cache_f" ~capacity:4 () in
  (match Service.Cache.load ~decode fresh path with
  | Ok n -> Alcotest.(check int) "entry restored" 1 n
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_cache_truncated_file_rejected () =
  (* A cache file cut off mid-write (crash before the atomic rename
     existed) must be rejected as a clean [Error], not an exception, and
     an engine pointed at it must start empty rather than die. *)
  let c = Service.Cache.create ~name:"test.cache_g" ~capacity:4 () in
  Service.Cache.add c "one" 1;
  Service.Cache.add c "two" 2;
  let path = Filename.temp_file "service_cache" ".json" in
  let encode v = Obs.Json.Num (float_of_int v) in
  let decode j = Option.map int_of_float (Obs.Json.number_value j) in
  Service.Cache.save ~encode c path;
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  let fresh = Service.Cache.create ~name:"test.cache_h" ~capacity:4 () in
  (match Service.Cache.load ~decode fresh path with
  | Error _ -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "truncated file loaded %d entries" n));
  Alcotest.(check int) "nothing restored" 0 (Service.Cache.length fresh);
  let engine = Service.Engine.create ~workers:1 ~cache_file:path () in
  Alcotest.(check int)
    "engine starts empty on a truncated cache file" 0
    (Service.Engine.restored_entries engine);
  Service.Engine.shutdown engine;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_runs_jobs () =
  let pool = Service.Pool.create ~name:"test.pool_a" ~workers:2 ~capacity:16 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 10 do
    match Service.Pool.submit pool (fun () -> Atomic.incr counter) with
    | Service.Pool.Accepted -> ()
    | Service.Pool.Overloaded -> Alcotest.fail "queue of 16 rejected 10 jobs"
  done;
  Service.Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran" 10 (Atomic.get counter);
  Alcotest.(check int) "completed" 10 (Service.Pool.completed pool)

let test_pool_overload_backpressure () =
  (* One worker blocked on a mutex-guarded gate, queue of 1: concurrent
     clients must see at least one Overloaded, and nothing blocks. *)
  let pool = Service.Pool.create ~name:"test.pool_b" ~workers:1 ~capacity:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let blocker_started = Atomic.make false in
  (match
     Service.Pool.submit pool (fun () ->
         Atomic.set blocker_started true;
         Mutex.lock gate;
         Mutex.unlock gate)
   with
  | Service.Pool.Accepted -> ()
  | Service.Pool.Overloaded -> Alcotest.fail "empty pool rejected a job");
  while not (Atomic.get blocker_started) do
    Domain.cpu_relax ()
  done;
  (* The worker is stuck on the gate; capacity 1 means the first of these
     queues and the rest are rejected. *)
  let clients = 8 in
  let verdicts =
    List.init clients (fun _ -> Service.Pool.submit pool (fun () -> ()))
  in
  let rejected =
    List.length (List.filter (fun v -> v = Service.Pool.Overloaded) verdicts)
  in
  Alcotest.(check bool) "at least one Overloaded" true (rejected >= 1);
  Alcotest.(check int)
    "accepted + rejected = submitted" clients
    (List.length verdicts);
  Alcotest.(check bool)
    "exactly one queued" true
    (rejected = clients - 1);
  Mutex.unlock gate;
  Service.Pool.shutdown pool;
  Alcotest.(check int) "rejections counted" rejected (Service.Pool.rejected pool)

let test_pool_submit_after_shutdown () =
  let pool = Service.Pool.create ~name:"test.pool_c" ~workers:1 ~capacity:4 () in
  Service.Pool.shutdown pool;
  (match Service.Pool.submit pool (fun () -> ()) with
  | Service.Pool.Overloaded -> ()
  | Service.Pool.Accepted -> Alcotest.fail "accepted after shutdown");
  Service.Pool.shutdown pool (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_request_roundtrip () =
  let req =
    {
      Service.Protocol.id = "r-42";
      qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];";
      device = "linear-4";
      method_ = Service.Protocol.Cyclic;
      engine = "sabre";
      slice_size = Some 10;
      n_swaps = 2;
      timeout = 3.5;
      noise = true;
      use_cache = false;
      stream = true;
    }
  in
  match Service.Protocol.parse_request (Service.Protocol.request_to_string req) with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check bool) "request round-trips" true (got = req)

let test_response_roundtrip () =
  let payload =
    {
      Service.Protocol.ok_id = "r1";
      ok_qasm = "OPENQASM 2.0;\nqreg q[2];\n";
      ok_initial = [| 1; 0 |];
      ok_final = [| 0; 1 |];
      ok_swaps = 1;
      ok_added_cnots = 3;
      ok_depth = 4;
      ok_blocks = 2;
      ok_backtracks = 0;
      ok_proved_optimal = true;
      ok_maxsat_iterations = 5;
      ok_solver_calls = 2;
      ok_cache_hit = false;
      ok_coalesced = true;
      ok_time = 0.25;
    }
  in
  (match
     Service.Protocol.parse_response
       (Service.Protocol.response_to_string (Service.Protocol.Ok_response payload))
   with
  | Ok (Service.Protocol.Ok_response got) ->
    Alcotest.(check bool) "ok response round-trips" true (got = payload)
  | Ok _ -> Alcotest.fail "parsed as error"
  | Error e -> Alcotest.fail e);
  let error =
    Service.Protocol.Error_response
      { id = "r2"; code = Service.Protocol.Overloaded; message = "queue full" }
  in
  match
    Service.Protocol.parse_response (Service.Protocol.response_to_string error)
  with
  | Ok got -> Alcotest.(check bool) "error round-trips" true (got = error)
  | Error e -> Alcotest.fail e

let test_request_rejects_garbage () =
  (match Service.Protocol.parse_request "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed garbage");
  match Service.Protocol.parse_request "{\"id\": \"x\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a request without qasm"

let test_request_unknown_fields_tolerated () =
  (* Forward compatibility: unknown fields are ignored, known ones
     still land. *)
  match
    Service.Protocol.parse_request
      "{\"id\": \"u1\", \"qasm\": \"OPENQASM 2.0;\", \"wibble\": 7, \
       \"future\": {\"nested\": [1, 2]}}"
  with
  | Error e -> Alcotest.fail ("unknown fields rejected: " ^ e)
  | Ok r ->
    Alcotest.(check string) "id kept" "u1" r.Service.Protocol.id;
    Alcotest.(check string) "qasm kept" "OPENQASM 2.0;" r.Service.Protocol.qasm

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_request_size_cap () =
  let line =
    Printf.sprintf "{\"id\": \"big\", \"qasm\": \"%s\"}" (String.make 4096 'x')
  in
  (match Service.Protocol.parse_request ~max_bytes:1024 line with
  | Error msg ->
    Alcotest.(check bool)
      "error names the size cap" true
      (contains_substring msg "maximum size")
  | Ok _ -> Alcotest.fail "oversized request parsed");
  match Service.Protocol.parse_request ~max_bytes:8192 line with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("within-cap request rejected: " ^ e)

(* Every malformed input through the stdio serve loop must come back as
   a documented error response on the same stream — never an exception,
   never a dropped line. *)
let test_serve_loop_error_paths () =
  let engine = Service.Engine.create ~workers:1 () in
  let dir = Filename.temp_file "serve_errors" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let in_path = Filename.concat dir "in.jsonl" in
  let out_path = Filename.concat dir "out.jsonl" in
  let good =
    {
      Service.Protocol.default_request with
      id = "good";
      qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];";
      device = "linear-4";
      timeout = 30.0;
    }
  in
  Out_channel.with_open_bin in_path (fun oc ->
      (* 1. malformed JSON  2. oversized line  3. unknown fields on an
         otherwise-valid request  4. a final line cut off mid-object
         (mid-line EOF: no trailing newline). *)
      output_string oc "{\"id\": \"broken\", \n";
      output_string oc
        (Printf.sprintf "{\"id\": \"huge\", \"qasm\": \"%s\"}\n"
           (String.make 2048 'y'));
      let line = Service.Protocol.request_to_string good in
      output_string oc
        (String.sub line 0 (String.length line - 1)
        ^ ", \"unknown_field\": true}\n");
      output_string oc "{\"id\": \"cut");
  let ic = open_in in_path in
  let out = open_out out_path in
  Service.Engine.serve ~max_request_bytes:1024 engine ic out;
  close_in ic;
  close_out out;
  let responses = ref [] in
  let ic = open_in out_path in
  (try
     while true do
       match Service.Protocol.parse_response (input_line ic) with
       | Ok r -> responses := r :: !responses
       | Error e -> Alcotest.fail ("serve output does not re-parse: " ^ e)
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "four responses" 4 (List.length !responses);
  (* The two syntactically broken lines (malformed JSON, mid-line EOF)
     have no recoverable id, so their errors carry id "".  The oversized
     line is valid JSON, so its id is echoed. *)
  let bad_requests_for id =
    List.length
      (List.filter
         (function
           | Service.Protocol.Error_response
               { id = i; code = Service.Protocol.Bad_request; _ } -> i = id
           | _ -> false)
         !responses)
  in
  Alcotest.(check int)
    "malformed JSON and mid-line EOF -> bad_request (no recoverable id)" 2
    (bad_requests_for "");
  Alcotest.(check int) "oversized -> bad_request, id echoed" 1
    (bad_requests_for "huge");
  (match
     List.find_opt
       (function
         | Service.Protocol.Ok_response p -> p.Service.Protocol.ok_id = "good"
         | _ -> false)
       !responses
   with
  | Some _ -> ()
  | None -> Alcotest.fail "request with unknown fields was not routed ok");
  Sys.remove in_path;
  Sys.remove out_path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Engine end-to-end over examples/qasm *)

let example_circuits =
  [
    "../examples/qasm/bell_pair.qasm";
    "../examples/qasm/ghz4.qasm";
    "../examples/qasm/star_hub.qasm";
    "../examples/qasm/qaoa_ring6.qasm";
    "../examples/qasm/adder_slice.qasm";
  ]

let routed_of_payload device (p : Service.Protocol.ok_payload) =
  let n_phys = Arch.Device.n_qubits device in
  Satmap.Routed.create ~device
    ~initial:(Satmap.Mapping.of_array ~n_phys p.ok_initial)
    ~final:(Satmap.Mapping.of_array ~n_phys p.ok_final)
    ~circuit:(Quantum.Qasm.of_string p.ok_qasm)

let handle_ok engine req =
  match Service.Engine.handle engine req with
  | Service.Protocol.Ok_response p -> p
  | Service.Protocol.Error_response { code; message; _ } ->
    Alcotest.fail
      (Printf.sprintf "%s: %s" (Service.Protocol.error_code_name code) message)
  | Service.Protocol.Progress_response _ ->
    Alcotest.fail "handle returned a progress line"

let test_examples_end_to_end () =
  let engine = Service.Engine.create ~workers:1 () in
  List.iter
    (fun path ->
      let original = Quantum.Qasm.of_file path in
      let req =
        {
          Service.Protocol.default_request with
          id = path;
          qasm = Quantum.Qasm.to_string original;
          device = "tokyo";
          timeout = 30.0;
        }
      in
      let p = handle_ok engine req in
      (* The response's QASM must re-parse, and the reconstructed routed
         circuit must satisfy the independent verifier against the
         original. *)
      Satmap.Verifier.check_exn ~original (routed_of_payload tokyo p))
    example_circuits;
  Service.Engine.shutdown engine

let test_cache_differential () =
  (* The cached response must carry exactly the result a fresh Router
     solve produces: both verify, and cost/maps/circuit agree. *)
  let engine = Service.Engine.create ~workers:1 () in
  let original = Quantum.Qasm.of_file "../examples/qasm/qaoa_ring6.qasm" in
  let req =
    {
      Service.Protocol.default_request with
      id = "cold";
      qasm = Quantum.Qasm.to_string original;
      device = "tokyo";
      timeout = 30.0;
    }
  in
  let fresh = handle_ok engine req in
  let cached = handle_ok engine { req with id = "warm" } in
  Alcotest.(check bool) "fresh is cold" false fresh.ok_cache_hit;
  Alcotest.(check bool) "second hits" true cached.ok_cache_hit;
  Alcotest.(check string) "same physical circuit" fresh.ok_qasm cached.ok_qasm;
  Alcotest.(check (array int)) "same initial" fresh.ok_initial cached.ok_initial;
  Alcotest.(check (array int)) "same final" fresh.ok_final cached.ok_final;
  Alcotest.(check int) "same swaps" fresh.ok_swaps cached.ok_swaps;
  Satmap.Verifier.check_exn ~original (routed_of_payload tokyo fresh);
  Satmap.Verifier.check_exn ~original (routed_of_payload tokyo cached);
  Service.Engine.shutdown engine

let test_warm_pool () =
  (* Pool mechanics: a miss mints, release parks, the next acquire with
     the same key drains the pool, and distinct keys do not collide. *)
  let pool = Service.Warm.create ~capacity:2 () in
  let device = tokyo in
  let config = Satmap.Router.default_config in
  let k1 = Service.Warm.key ~device ~config in
  let k2 = Service.Warm.key ~device ~config:{ config with n_swaps = 2 } in
  Alcotest.(check bool) "swap budget is part of the key" false (k1 = k2);
  let misses () =
    Obs.Metrics.value (Obs.Metrics.counter "service.warm_misses")
  in
  let hits () = Obs.Metrics.value (Obs.Metrics.counter "service.warm_hits") in
  let m0 = misses () and h0 = hits () in
  let s1 = Service.Warm.acquire pool ~key:k1 in
  Alcotest.(check int) "cold acquire misses" 1 (misses () - m0);
  Alcotest.(check int) "nothing parked while checked out" 0
    (Service.Warm.parked pool);
  Service.Warm.release pool ~key:k1 s1;
  Alcotest.(check int) "released session parked" 1 (Service.Warm.parked pool);
  let s1' = Service.Warm.acquire pool ~key:k1 in
  Alcotest.(check int) "warm acquire hits" 1 (hits () - h0);
  Alcotest.(check bool) "same session returned" true (s1 == s1');
  Alcotest.(check int) "pool drained by the hit" 0 (Service.Warm.parked pool);
  (* A different key never sees k1's sessions. *)
  Service.Warm.release pool ~key:k1 s1';
  let s2 = Service.Warm.acquire pool ~key:k2 in
  Alcotest.(check bool) "keys are isolated" false (s1 == s2);
  (* Capacity bounds parked sessions: releases beyond it are dropped. *)
  Service.Warm.release pool ~key:k2 s2;
  Service.Warm.release pool ~key:k2 (Satmap.Encoding.Session.create ());
  Service.Warm.release pool ~key:k2 (Satmap.Encoding.Session.create ());
  Alcotest.(check int) "capacity respected" 2 (Service.Warm.parked pool)

let test_engine_warm_reuse () =
  (* Two cache-distinct requests with the same device/shape fingerprint:
     the second must route on the session the first parked (the skeleton
     solver is reused, so no new solver is created for its first block). *)
  let engine = Service.Engine.create ~workers:1 () in
  let req id qasm =
    {
      Service.Protocol.default_request with
      id;
      qasm;
      device = "tokyo";
      timeout = 30.0;
    }
  in
  let q1 = Quantum.Qasm.of_file "../examples/qasm/bell_pair.qasm" in
  ignore (handle_ok engine (req "a" (Quantum.Qasm.to_string q1)));
  let parked_after_first = Service.Warm.parked (Service.Engine.warm engine) in
  let q2 = Quantum.Qasm.of_file "../examples/qasm/ghz4.qasm" in
  let h0 = Obs.Metrics.value (Obs.Metrics.counter "service.warm_hits") in
  ignore (handle_ok engine (req "b" (Quantum.Qasm.to_string q2)));
  let h1 = Obs.Metrics.value (Obs.Metrics.counter "service.warm_hits") in
  if parked_after_first > 0 then
    Alcotest.(check bool) "second request hit the warm pool" true (h1 > h0);
  Service.Engine.shutdown engine

let test_unknown_device_and_bad_qasm () =
  let engine = Service.Engine.create ~workers:1 () in
  (match
     Service.Engine.handle engine
       { Service.Protocol.default_request with qasm = "qreg"; device = "nope" }
   with
  | Service.Protocol.Error_response { code = Service.Protocol.Unknown_device; _ }
    -> ()
  | _ -> Alcotest.fail "expected unknown_device");
  (match
     Service.Engine.handle engine
       { Service.Protocol.default_request with qasm = "this is not qasm" }
   with
  | Service.Protocol.Error_response { code = Service.Protocol.Parse_error; _ } ->
    ()
  | _ -> Alcotest.fail "expected parse_error");
  Service.Engine.shutdown engine

(* Request keys recorded before the CLI and the serve tier were merged
   onto the engine registry: persisted [--cache-file] entries keep
   hitting only while these stay byte-identical. *)
let test_canonical_keys_pinned () =
  let base =
    {
      Service.Protocol.default_request with
      qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\n\
         cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n";
      device = "tokyo";
      timeout = 10.0;
    }
  in
  List.iter
    (fun (name, req, expected) ->
      match Service.Engine.canonical_key req with
      | Ok key -> Alcotest.(check string) name expected key
      | Error _ -> Alcotest.fail (name ^ ": request rejected"))
    Service.Protocol.
      [
        ("sliced", { base with method_ = Sliced },
         "532b6761043ea3580c1d2e55b44c9622");
        ("sliced:10", { base with method_ = Sliced; slice_size = Some 10 },
         "b7cfef0508aac6d709d1e539dc49ed00");
        ("monolithic", { base with method_ = Monolithic },
         "c5f4ca6b406f33697abe0e7d2663cae7");
        ("cyclic", { base with method_ = Cyclic },
         "1f109227d5bc49c3ac039bbba378d5e5");
        ("cyclic:5", { base with method_ = Cyclic; slice_size = Some 5 },
         "74f8419cc8cd901447917b8d746db4c0");
        ("portfolio", { base with method_ = Portfolio },
         "c9caf9cd1d9acaa7ecf795c336050d80");
        ("sabre", { base with engine = "sabre" },
         "bef8280a07972ca5810c1941f8705d4f");
        ("noise, n=2", { base with noise = true; n_swaps = 2 },
         "9630c40924f85de261fb8abc69f641e1");
      ]

(* The block cache, warm sessions and progress are MaxSAT hooks: a
   heuristic engine's request must leave them untouched, and its reply
   must not answer a later default-engine request for the same circuit. *)
let test_hooks_stay_maxsat_only () =
  let engine = Service.Engine.create ~workers:1 () in
  let qasm =
    Quantum.Qasm.to_string
      (Quantum.Qasm.of_file "../examples/qasm/star_hub.qasm")
  in
  let req =
    {
      Service.Protocol.default_request with
      id = "sabre";
      qasm;
      device = "tokyo";
      engine = "sabre";
      timeout = 30.0;
    }
  in
  let bc = Service.Engine.block_cache engine in
  let warm = Service.Engine.warm engine in
  let parked = Service.Warm.parked warm in
  let hits = Service.Block_cache.hits bc
  and misses = Service.Block_cache.misses bc in
  ignore (handle_ok engine req);
  Alcotest.(check int) "no warm session parked" parked
    (Service.Warm.parked warm);
  Alcotest.(check int) "no block-cache hit" hits (Service.Block_cache.hits bc);
  Alcotest.(check int) "no block-cache miss" misses
    (Service.Block_cache.misses bc);
  let p =
    handle_ok engine
      {
        req with
        id = "maxsat";
        engine = Service.Protocol.default_request.engine;
      }
  in
  Alcotest.(check bool) "default engine misses the sabre entry" false
    p.ok_cache_hit;
  Service.Engine.shutdown engine

let () =
  Alcotest.run "service"
    [
      ( "canon",
        [
          Alcotest.test_case "permutation is a permutation" `Quick
            test_permutation_is_permutation;
          Alcotest.test_case "renamed circuits collide" `Quick
            test_canonical_collides_renamed;
          Alcotest.test_case "perm apply/unapply roundtrip" `Quick
            test_perm_roundtrip;
          Alcotest.test_case "digest parts are length-prefixed" `Quick
            test_digest_parts_no_concat_collision;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
          Alcotest.test_case "save/load roundtrip" `Quick test_cache_save_load;
          Alcotest.test_case "save is atomic" `Quick test_cache_save_is_atomic;
          Alcotest.test_case "truncated file rejected cleanly" `Quick
            test_cache_truncated_file_rejected;
        ] );
      ( "pool",
        [
          Alcotest.test_case "jobs run to completion" `Quick test_pool_runs_jobs;
          Alcotest.test_case "overload backpressure" `Quick
            test_pool_overload_backpressure;
          Alcotest.test_case "submit after shutdown" `Quick
            test_pool_submit_after_shutdown;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_request_rejects_garbage;
          Alcotest.test_case "unknown fields tolerated" `Quick
            test_request_unknown_fields_tolerated;
          Alcotest.test_case "request size cap" `Quick test_request_size_cap;
          Alcotest.test_case "serve-loop error paths" `Quick
            test_serve_loop_error_paths;
        ] );
      ( "warm",
        [ Alcotest.test_case "pool mechanics" `Quick test_warm_pool ] );
      ( "engine",
        [
          Alcotest.test_case "examples route and verify" `Quick
            test_examples_end_to_end;
          Alcotest.test_case "cache differential" `Quick test_cache_differential;
          Alcotest.test_case "error responses" `Quick
            test_unknown_device_and_bad_qasm;
          Alcotest.test_case "warm session reuse" `Quick test_engine_warm_reuse;
          Alcotest.test_case "request keys pinned" `Quick
            test_canonical_keys_pinned;
          Alcotest.test_case "hooks stay MaxSAT-only" `Quick
            test_hooks_stay_maxsat_only;
        ] );
    ]
