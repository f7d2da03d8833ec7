(* Observability-layer tests: span nesting across Parallel.map domains,
   histogram percentile accuracy, the log-service event stream's privacy
   guarantee over full protocol flows, the disabled-mode zero-allocation
   contract, channel round-trip accounting, and Chrome JSON validity. *)

module Obs = Larch_obs
module Trace = Larch_obs.Trace
module Metrics = Larch_obs.Metrics
module Events = Larch_obs.Events
module Channel = Larch_net.Channel
open Larch_core

(* substring search, KMP-free: fine for test-sized inputs *)
let contains (hay : string) (needle : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every test leaves the global toggles off. *)
let with_obs f =
  Obs.Runtime.enable_all ();
  Trace.reset ();
  Events.clear ();
  Metrics.reset Metrics.default;
  Fun.protect ~finally:(fun () -> Obs.Runtime.disable_all ()) f

(* --- tracing --- *)

let span_nesting_parallel () =
  with_obs @@ fun () ->
  (* each task must be slow enough that the spawned domains win a share of
     the work queue before the calling domain drains it *)
  let busy x =
    let acc = ref x in
    for _ = 1 to 2_000_000 do
      acc := (!acc * 7) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let results =
    Trace.with_span "outer" (fun () ->
        Trace.add_int "tasks" 16;
        Larch_util.Parallel.map ~domains:4
          (fun x ->
            Trace.with_span "work" (fun () ->
                busy x;
                x * x))
          (Array.init 16 Fun.id))
  in
  Alcotest.(check (array int)) "map results" (Array.init 16 (fun i -> i * i)) results;
  let spans = Trace.spans () in
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  let works = List.filter (fun s -> s.Trace.name = "work") spans in
  Alcotest.(check int) "one work span per task" 16 (List.length works);
  (* every work span must sit under the outer span, even though it ran on a
     worker domain: Parallel.map stitches the parent across domains *)
  List.iter
    (fun w ->
      let anc = Trace.ancestors spans w in
      Alcotest.(check bool) "outer is an ancestor" true
        (List.exists (fun a -> a.Trace.id = outer.Trace.id) anc))
    works;
  (* the work really was spread over multiple domains *)
  let domains = List.sort_uniq compare (List.map (fun s -> s.Trace.domain) works) in
  Alcotest.(check bool) "more than one domain" true (List.length domains > 1);
  (* worker spans exist and are direct children of outer *)
  let workers = List.filter (fun s -> s.Trace.name = "parallel.worker") spans in
  Alcotest.(check bool) "worker spans recorded" true (List.length workers >= 2);
  List.iter
    (fun w -> Alcotest.(check int) "worker parent is outer" outer.Trace.id w.Trace.parent)
    workers;
  (* spans () is start-ordered *)
  let starts = List.map (fun s -> s.Trace.start_ns) spans in
  Alcotest.(check bool) "start-ordered" true (List.sort compare starts = starts)

let span_exception_safety () =
  with_obs @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let spans = Trace.spans () in
  Alcotest.(check int) "span recorded despite raise" 1 (List.length spans);
  Alcotest.(check bool) "duration measured" true
    ((List.hd spans).Trace.dur_ns >= 0L)

(* --- metrics --- *)

let histogram_percentiles () =
  with_obs @@ fun () ->
  let m = Metrics.create () in
  let h = Metrics.histogram m "test.latency" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.histogram_count h);
  Alcotest.(check (float 0.001)) "sum" 500500.0 (Metrics.histogram_sum h);
  Alcotest.(check (float 0.001)) "mean" 500.5 (Metrics.histogram_mean h);
  (* log2 buckets: estimates are exact to within a factor of 2 *)
  let within q lo hi =
    let v = Metrics.percentile h q in
    if v < lo || v > hi then
      Alcotest.failf "p%.0f = %.1f outside [%g, %g]" (q *. 100.) v lo hi
  in
  within 0.50 250. 1000.;
  within 0.95 475. 1000.;
  within 0.99 495. 1000.;
  (* clamped to the observed range *)
  Alcotest.(check bool) "p100 <= max" true (Metrics.percentile h 1.0 <= 1000.);
  Alcotest.(check bool) "p0 >= min" true (Metrics.percentile h 0.0 >= 1.0)

let counters_and_gauges () =
  with_obs @@ fun () ->
  let m = Metrics.create () in
  let c = Metrics.counter m "test.count" in
  Metrics.inc c;
  Metrics.add c 41;
  Alcotest.(check int) "counter" 42 (Metrics.counter_value c);
  Alcotest.(check bool) "registration idempotent" true (Metrics.counter m "test.count" == c);
  let g = Metrics.gauge m "test.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  Metrics.reset m;
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c);
  (* the report renders every registered metric *)
  Metrics.add c 7;
  let report = Metrics.report m in
  Alcotest.(check bool) "report mentions counter" true
    (contains report "test.count")

(* each histogram row names its unit, read off the metric name *)
let histogram_units () =
  let m = Metrics.create () in
  List.iter
    (fun name -> Metrics.force_observe (Metrics.histogram m name) 3.)
    [ "span.test.op"; "log.merkle.proof.bytes"; "log.admission.queue_delay"; "store.wal.group_size" ];
  let rows = String.split_on_char '\n' (Metrics.report m) in
  Alcotest.(check bool) "header has no blanket unit" false
    (List.mem "histograms (ms):" rows);
  List.iter
    (fun (name, unit) ->
      match
        List.find_opt (fun r -> contains r name) rows
        |> Option.map (fun r -> String.split_on_char ' ' r |> List.filter (( <> ) ""))
      with
      | Some (n :: u :: _) when n = name -> Alcotest.(check string) (name ^ " unit") unit u
      | _ -> Alcotest.failf "no report row for %s" name)
    [
      ("span.test.op", "ms");
      ("log.merkle.proof.bytes", "B");
      ("log.admission.queue_delay", "s");
      ("store.wal.group_size", "count");
    ]

(* --- disabled-mode contract: no allocation, no recording --- *)

let disabled_is_noop () =
  Obs.Runtime.disable_all ();
  Trace.reset ();
  Events.clear ();
  let m = Metrics.create () in
  let c = Metrics.counter m "noop.count" in
  let h = Metrics.histogram m "noop.hist" in
  let f = Fun.id in
  (* warm up so any lazy setup has happened *)
  for _ = 1 to 10 do
    ignore (Trace.with_span "noop" (fun () -> ()));
    Metrics.inc c;
    Metrics.observe h 1.5
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (f (Trace.with_span "noop" (fun () -> ())));
    Metrics.inc c;
    Metrics.observe h 1.5;
    Events.emit Events.Audit "never recorded"
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "no allocation while disabled" 0.0 allocated;
  Alcotest.(check int) "no spans recorded" 0 (Trace.span_count ());
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h);
  Alcotest.(check int) "no events recorded" 0 (List.length (Events.recent ()))

(* --- channel round trips + metrics export --- *)

let channel_round_trips () =
  let ch = Channel.create ~label:"test" () in
  ignore (Channel.send ch Channel.Client_to_log "request-1");
  ignore (Channel.send ch Channel.Log_to_client "response-1");
  ignore (Channel.send ch Channel.Client_to_log "request-2");
  (* request -> response -> request is exactly 2 round trips: the second
     request opens a round whose response has not yet been paid for *)
  let snap = Channel.snapshot ch in
  Alcotest.(check int) "req/resp/req = 2 RTs" 2 snap.Channel.rts;
  Alcotest.(check int) "messages" 3 snap.Channel.msgs;
  Alcotest.(check int) "bytes up" 18 snap.Channel.up;
  Alcotest.(check int) "bytes down" 10 snap.Channel.down;
  (* completing the pair does not add a round trip *)
  ignore (Channel.send ch Channel.Log_to_client "response-2");
  Alcotest.(check int) "completed pair still 2 RTs" 2 (Channel.snapshot ch).Channel.rts;
  (* observe exports totals even with the runtime toggle off *)
  let m = Metrics.create () in
  Channel.observe ch m;
  Alcotest.(check int) "exported round trips" 2
    (Metrics.counter_value (Metrics.counter m "net.test.round_trips"));
  Alcotest.(check int) "exported bytes up" 18
    (Metrics.counter_value (Metrics.counter m "net.test.bytes_up"));
  (* reset clears everything including the direction memory *)
  Channel.reset ch;
  let z = Channel.snapshot ch in
  Alcotest.(check int) "post-reset up" 0 z.Channel.up;
  Alcotest.(check int) "post-reset rts" 0 z.Channel.rts;
  ignore (Channel.send ch Channel.Log_to_client "x");
  Alcotest.(check int) "fresh round after reset" 1 (Channel.snapshot ch).Channel.rts

(* --- event-stream privacy over the full three-protocol flow --- *)

(* Relying-party identifiers that must never reach an event. *)
let forbidden = [ "github"; "target.example"; "decoy" ]

let event_privacy () =
  with_obs @@ fun () ->
  Larch_util.Clock.set 1_700_000_000.;
  let rand = Larch_hash.Drbg.of_seed "test-obs-privacy" in
  let log = Log_service.create ~rand_bytes:rand () in
  let client =
    Client.create ~client_id:"alice" ~account_password:"hunter2 but longer" ~log
      ~rand_bytes:rand ()
  in
  Client.enroll ~presignature_count:4 client;
  (* FIDO2 against github.com *)
  let rp = Relying_party.create ~name:"github.com" ~rand_bytes:rand () in
  let pk = Client.register_fido2 client ~rp_name:"github.com" in
  Relying_party.fido2_register rp ~username:"alice" ~pk;
  let challenge = Relying_party.fido2_challenge rp ~username:"alice" in
  let assertion = Client.authenticate_fido2 client ~rp_name:"github.com" ~challenge in
  Alcotest.(check bool) "fido2 accepted" true
    (Relying_party.fido2_login rp ~username:"alice" assertion);
  (* TOTP against target.example with a decoy registration *)
  let trp = Relying_party.create ~name:"target.example" ~rand_bytes:rand () in
  let tkey = Relying_party.totp_register trp ~username:"alice" in
  Client.register_totp client ~rp_name:"target.example" ~totp_key:tkey;
  Client.register_totp client ~rp_name:"decoy01.example" ~totp_key:(rand 20);
  let time = 1_700_000_000. in
  let code = Client.authenticate_totp client ~rp_name:"target.example" ~time in
  Alcotest.(check bool) "totp accepted" true
    (Relying_party.totp_login trp ~username:"alice" ~time code);
  (* passwords against target.example with a decoy *)
  let pw = Client.register_password client ~rp_name:"target.example" in
  ignore (Client.register_password client ~rp_name:"decoy02.example");
  let pw' = Client.authenticate_password client ~rp_name:"target.example" in
  Alcotest.(check string) "password stable" pw pw';
  (* audit + revocation emit too *)
  ignore (Client.audit client);
  Client.revoke_all client;
  let events = Events.recent () in
  Alcotest.(check bool) "events were captured" true (List.length events >= 12);
  List.iter
    (fun e ->
      let rendered = Events.to_string e in
      List.iter
        (fun bad ->
          if contains rendered bad then
            Alcotest.failf "event leaks relying-party identifier %S: %s" bad rendered)
        forbidden)
    events;
  (* the stream still names the client, method, and lifecycle kinds *)
  let kinds = List.map (fun e -> e.Events.kind) events in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Events.kind_to_string k ^ " present")
        true (List.mem k kinds))
    [ Events.Enroll; Events.Register; Events.Auth_begin; Events.Auth_finish;
      Events.Audit; Events.Revocation ]

(* --- Chrome trace_event JSON: validate with a minimal JSON parser --- *)

exception Bad_json of string

let validate_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail m = raise (Bad_json (Printf.sprintf "%s at %d" m !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "value"
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then
      pos := !pos + String.length lit
    else fail lit
  and number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "number"
  and string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
      | '"' -> fin := true
      | '\\' -> incr pos (* skip the escaped char *)
      | c when Char.code c < 0x20 -> fail "unescaped control char"
      | _ -> ());
      incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let fin = ref false in
      while not !fin do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' -> incr pos; fin := true
        | _ -> fail "object"
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' -> incr pos; fin := true
        | _ -> fail "array"
      done
    end
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let chrome_json_valid () =
  with_obs @@ fun () ->
  Trace.with_span "outer \"quoted\\name\"" (fun () ->
      Trace.add_str "note" "attrs with \"quotes\", newline \n and tab \t";
      Trace.add_int "n" 3;
      Trace.add_float "ratio" 0.5;
      Trace.with_span "inner" (fun () -> ()));
  let json = Trace.to_chrome_json () in
  (match validate_json json with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "invalid chrome json (%s): %s" m json);
  Alcotest.(check bool) "has traceEvents" true
    (contains json "\"traceEvents\"");
  Alcotest.(check bool) "has complete events" true
    (contains json "\"ph\":\"X\"")

(* --- high-resolution histograms: merge properties (qcheck) --- *)

module Histo = Larch_obs.Histo

let build (xs : float list) : Histo.t =
  let h = Histo.create () in
  List.iter (Histo.observe h) xs;
  h

(* Samples spread across ~24 octaves, all inside the covered range. *)
let gen_sample =
  QCheck.Gen.(
    map2
      (fun e m -> float_of_int m *. (2. ** float_of_int e))
      (int_range (-6) 18) (int_range 1 1023))

let gen_stream = QCheck.Gen.(list_size (int_range 1 200) gen_sample)

let arb_two_streams =
  QCheck.make
    ~print:QCheck.Print.(pair (list float) (list float))
    QCheck.Gen.(pair gen_stream gen_stream)

let arb_three_streams =
  QCheck.make
    ~print:QCheck.Print.(triple (list float) (list float) (list float))
    QCheck.Gen.(triple gen_stream gen_stream gen_stream)

(* Quantiles of merge(a,b) track the exact quantiles of the concatenated
   stream to within one sub-bucket: the rank-⌈q·n⌉ sample of the merged
   histogram lands in exactly the bucket of the true rank-⌈q·n⌉ value, so
   the midpoint estimate is off by at most one bucket width (~1.6%
   relative; we allow 2%). *)
let merge_quantile_bound =
  QCheck.Test.make ~name:"merge(a,b) quantiles within error bound of a@b" ~count:200
    arb_two_streams
    (fun (xs, ys) ->
      let m = Histo.merge (build xs) (build ys) in
      let sorted = Array.of_list (List.sort compare (xs @ ys)) in
      let n = Array.length sorted in
      List.iter
        (fun q ->
          let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
          let exact = sorted.(rank - 1) in
          let est = Histo.percentile m q in
          let rel = Float.abs (est -. exact) /. exact in
          if rel > 0.02 then
            QCheck.Test.fail_reportf "p%g: est %.17g vs exact %.17g (rel err %.4f, n=%d)"
              (q *. 100.) est exact rel n)
        [ 0.5; 0.9; 0.99; 1.0 ];
      true)

(* Merge is lossless on bucket counts: merging equals observing the
   concatenated stream, and the bucket arrays commute and associate
   exactly (the float sum only up to rounding, so we compare counts). *)
let merge_lossless_commutative_associative =
  QCheck.Test.make ~name:"merge lossless on counts, commutative, associative" ~count:200
    arb_three_streams
    (fun (xs, ys, zs) ->
      let ha = build xs and hb = build ys and hc = build zs in
      let buckets h = Histo.nonzero_buckets h in
      let concat = build (xs @ ys) in
      let ab = Histo.merge ha hb in
      if buckets ab <> buckets concat then
        QCheck.Test.fail_reportf "merge(a,b) buckets differ from concatenated stream";
      if Histo.count ab <> List.length xs + List.length ys then
        QCheck.Test.fail_reportf "merge(a,b) count not additive";
      if buckets ab <> buckets (Histo.merge hb ha) then
        QCheck.Test.fail_reportf "merge not commutative on buckets";
      let abc = Histo.merge (Histo.merge ha hb) hc in
      let a_bc = Histo.merge ha (Histo.merge hb hc) in
      if buckets abc <> buckets a_bc then
        QCheck.Test.fail_reportf "merge not associative on buckets";
      true)

(* Registry-level merge: counters and gauges add, histograms bucket-merge,
   metrics missing from [into] get registered. *)
let registry_merge () =
  with_obs @@ fun () ->
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "ops") 3;
  Metrics.add (Metrics.counter b "ops") 4;
  Metrics.inc (Metrics.counter b "only_b");
  Metrics.set_gauge (Metrics.gauge a "depth") 2.0;
  Metrics.set_gauge (Metrics.gauge b "depth") 5.0;
  Metrics.observe (Metrics.histogram a "lat") 1.0;
  Metrics.observe (Metrics.histogram b "lat") 100.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Metrics.counter_value (Metrics.counter a "ops"));
  Alcotest.(check int) "missing counter registered" 1
    (Metrics.counter_value (Metrics.counter a "only_b"));
  Alcotest.(check (float 0.0)) "gauges add" 7.0 (Metrics.gauge_value (Metrics.gauge a "depth"));
  let h = Metrics.histogram a "lat" in
  Alcotest.(check int) "histogram counts merge" 2 (Metrics.histogram_count h);
  Alcotest.(check (float 0.0)) "merged min" 1.0 (Metrics.histogram_min h);
  Alcotest.(check (float 0.0)) "merged max" 100.0 (Metrics.histogram_max h);
  (* source registry is untouched *)
  Alcotest.(check int) "source unchanged" 4 (Metrics.counter_value (Metrics.counter b "ops"))

(* --- flight recorder: ring eviction, incident dumps, sink --- *)

let flight_ring_and_incident () =
  with_obs @@ fun () ->
  let reg = Metrics.create () in
  let f = Larch_obs.Flight.create ~capacity:2 ~registry:reg () in
  let c = Metrics.counter reg "flight.ticks" in
  Metrics.inc c;
  Larch_obs.Flight.record f;
  Metrics.inc c;
  Larch_obs.Flight.record f;
  Metrics.inc c;
  Larch_obs.Flight.record f;
  let seen = ref None in
  Larch_obs.Flight.set_sink f (Some (fun d -> seen := Some d));
  Larch_obs.Flight.incident ~detail:"unit" f "test.reason";
  Alcotest.(check int) "one incident" 1 (Larch_obs.Flight.incident_count f);
  let d = Option.get (Larch_obs.Flight.last_dump f) in
  Alcotest.(check bool) "sink got the dump" true (!seen = Some d);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dump has %S" needle) true (contains d needle))
    [
      "=== larch flight recorder ===";
      "incident: test.reason";
      "detail: unit";
      "ring_entries: 2";
      "--- current ---";
      "=== end flight dump ===";
    ];
  (* capacity 2: the oldest snapshot (ticks=1) was evicted, 2 and 3 remain *)
  Alcotest.(check bool) "evicted oldest snapshot" false (contains d "\"flight.ticks\":1}");
  Alcotest.(check bool) "kept second snapshot" true (contains d "\"flight.ticks\":2}");
  Alcotest.(check bool) "kept newest snapshot" true (contains d "\"flight.ticks\":3}");
  Larch_obs.Flight.clear f;
  Alcotest.(check bool) "clear forgets dumps" true (Larch_obs.Flight.last_dump f = None);
  Alcotest.(check int) "clear resets incidents" 0 (Larch_obs.Flight.incident_count f)

(* --- exporters: format sanity + the §2.3 privacy invariant --- *)

(* Drive all three protocols against RP names from [forbidden], then
   grep-proof every export surface: Prometheus text, canonical JSON, and
   a flight-recorder dump taken over the same registry and event stream. *)
let exporter_privacy () =
  with_obs @@ fun () ->
  Larch_util.Clock.set 1_700_000_000.;
  Larch_obs.Flight.clear Larch_obs.Flight.default;
  let rand = Larch_hash.Drbg.of_seed "test-obs-export-privacy" in
  let log = Log_service.create ~rand_bytes:rand () in
  let client =
    Client.create ~client_id:"alice" ~account_password:"hunter2 but longer" ~log
      ~rand_bytes:rand ()
  in
  Client.enroll ~presignature_count:4 client;
  let rp = Relying_party.create ~name:"github.com" ~rand_bytes:rand () in
  let pk = Client.register_fido2 client ~rp_name:"github.com" in
  Relying_party.fido2_register rp ~username:"alice" ~pk;
  let challenge = Relying_party.fido2_challenge rp ~username:"alice" in
  let assertion = Client.authenticate_fido2 client ~rp_name:"github.com" ~challenge in
  Alcotest.(check bool) "fido2 accepted" true
    (Relying_party.fido2_login rp ~username:"alice" assertion);
  let trp = Relying_party.create ~name:"target.example" ~rand_bytes:rand () in
  let tkey = Relying_party.totp_register trp ~username:"alice" in
  Client.register_totp client ~rp_name:"target.example" ~totp_key:tkey;
  let code = Client.authenticate_totp client ~rp_name:"target.example" ~time:1_700_000_000. in
  Alcotest.(check bool) "totp accepted" true
    (Relying_party.totp_login trp ~username:"alice" ~time:1_700_000_000. code);
  ignore (Client.register_password client ~rp_name:"decoy01.example");
  ignore (Client.authenticate_password client ~rp_name:"decoy01.example");
  ignore (Client.audit client);
  Larch_obs.Flight.record Larch_obs.Flight.default;
  Larch_obs.Flight.incident ~detail:"privacy sweep" Larch_obs.Flight.default "test.incident";
  let prom = Larch_obs.Export.prometheus Metrics.default in
  let js = Larch_obs.Export.json Metrics.default in
  let dump = Option.get (Larch_obs.Flight.last_dump Larch_obs.Flight.default) in
  (* the surfaces actually carry the new deep metrics... *)
  Alcotest.(check bool) "prom has TYPE lines" true (contains prom "# TYPE");
  Alcotest.(check bool) "prom carries auth counters" true
    (contains prom "larch_auth_fido2_verify_ok");
  Alcotest.(check bool) "prom carries presig gauge" true
    (contains prom "larch_log_fido2_presigs_remaining");
  Alcotest.(check bool) "json carries record counter" true
    (contains js "\"log.records.stored\":");
  (match validate_json js with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "exporter json invalid (%s)" m);
  (* ...and none of them leaks a relying-party identifier *)
  List.iter
    (fun (label, surface) ->
      List.iter
        (fun bad ->
          if contains surface bad then
            Alcotest.failf "%s leaks relying-party identifier %S" label bad)
        forbidden)
    [ ("prometheus", prom); ("json", js); ("flight dump", dump) ]

(* --- trace lanes: parallel workers pin tid >= 1000 --- *)

let parallel_tid_lanes () =
  with_obs @@ fun () ->
  let busy x =
    let acc = ref x in
    for _ = 1 to 500_000 do
      acc := (!acc * 7) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !acc)
  in
  ignore
    (Larch_util.Parallel.map ~domains:3
       (fun x ->
         Trace.with_span "lane.work" (fun () ->
             busy x;
             x))
       (Array.init 8 Fun.id));
  let spans = Trace.spans () in
  let workers = List.filter (fun s -> s.Trace.name = "parallel.worker") spans in
  Alcotest.(check bool) "workers recorded" true (workers <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "worker pinned to a lane >= 1000" true (s.Trace.domain >= 1000))
    workers;
  let works = List.filter (fun s -> s.Trace.name = "lane.work") spans in
  List.iter
    (fun s ->
      Alcotest.(check bool) "task span inherits the worker lane" true (s.Trace.domain >= 1000))
    works;
  (* outside the parallel section the override is gone *)
  Trace.with_span "after" (fun () -> ());
  let after = List.find (fun s -> s.Trace.name = "after") (Trace.spans ()) in
  Alcotest.(check bool) "caller back on its real domain id" true (after.Trace.domain < 1000);
  let json = Trace.to_chrome_json () in
  (match validate_json json with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "chrome json with lanes invalid (%s): %s" m json);
  Alcotest.(check bool) "lanes are named" true (contains json "worker lane ");
  Alcotest.(check bool) "thread_name metadata present" true (contains json "\"thread_name\"")

(* --- capacity report: byte-for-byte determinism --- *)

let report_determinism () =
  let r1 = Report.run ~auths:1 ~seed:"test-obs-report" () in
  let r2 = Report.run ~auths:1 ~seed:"test-obs-report" () in
  Alcotest.(check string) "same seed, same text" r1.Report.text r2.Report.text;
  Alcotest.(check string) "same seed, same digest" r1.Report.digest r2.Report.digest;
  Alcotest.(check int) "digest is hex sha256" 64 (String.length r1.Report.digest);
  let r3 = Report.run ~auths:1 ~seed:"test-obs-other" () in
  Alcotest.(check bool) "different seed, different digest" true
    (r3.Report.digest <> r1.Report.digest);
  (* the report names every section the issue promises *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %S" needle) true
        (contains r1.Report.text needle))
    [ "fido2"; "totp"; "password"; "p50"; "p99"; "presig"; "wal" ]

(* --- the seeded-world harness --- *)

(* A small but real world: one password session against a fresh log; the
   transcript carries the Merkle root, so every DRBG draw shows in it. *)
let password_world entropy =
  Scenario.run ~entropy @@ fun w ->
  let log = Log_service.create ~rand_bytes:w.rand () in
  let _, login =
    Scenario.session ~rand:w.rand log "scenario-user" ~presignatures:1 [ Scenario.Password ]
  in
  Larch_util.Clock.advance 30.;
  login Scenario.Password;
  let resp = Log_service.audit_with_head log ~client_id:"scenario-user" ~token:"pw" in
  Scenario.line w "records=%d root=%s" (List.length resp.Log_service.records)
    (Larch_util.Hex.encode resp.Log_service.sth.Larch_merkle.Merkle.Sth.root)

let scenario_digests () =
  let (), d1 = password_world "scenario-a" in
  let (), d2 = password_world "scenario-a" in
  let (), d3 = password_world "scenario-b" in
  Alcotest.(check string) "same entropy, same digest" d1 d2;
  Alcotest.(check int) "digest is hex sha256" 64 (String.length d1);
  Alcotest.(check bool) "different entropy, different digest" true (d1 <> d3)

let scenario_restores_on_raise () =
  let real () = Unix.gettimeofday () in
  (match
     Scenario.run ~events:true ~entropy:"scenario-raise" (fun _ ->
         Alcotest.(check (float 0.)) "simulated clock inside" Scenario.base_time
           (Larch_util.Clock.now ());
         Alcotest.(check bool) "events on inside" true (Obs.Runtime.events_enabled ());
         failwith "world died")
   with
  | _ -> Alcotest.fail "the raising body returned"
  | exception Failure m -> Alcotest.(check string) "body's exception propagates" "world died" m);
  Alcotest.(check bool) "clock back on real time" true
    (Float.abs (Larch_util.Clock.now () -. real ()) < 60.);
  Alcotest.(check bool) "obs time source unset" true
    (Float.abs (Obs.Runtime.now () -. real ()) < 60.);
  Alcotest.(check bool) "events off" false (Obs.Runtime.events_enabled ())

(* --- runner --- *)

let () =
  Alcotest.run "larch-obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting across 4 domains" `Quick span_nesting_parallel;
          Alcotest.test_case "span survives exceptions" `Quick span_exception_safety;
          Alcotest.test_case "chrome json validity" `Quick chrome_json_valid;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
          Alcotest.test_case "counters and gauges" `Quick counters_and_gauges;
          Alcotest.test_case "registry merge" `Quick registry_merge;
          Alcotest.test_case "histogram rows name their unit" `Quick histogram_units;
        ] );
      ( "histo-property",
        [
          QCheck_alcotest.to_alcotest merge_quantile_bound;
          QCheck_alcotest.to_alcotest merge_lossless_commutative_associative;
        ] );
      ( "flight",
        [ Alcotest.test_case "ring eviction, incident dump, sink" `Quick flight_ring_and_incident ] );
      ( "export",
        [ Alcotest.test_case "privacy across prom/json/flight dumps" `Slow exporter_privacy ] );
      ( "lanes",
        [ Alcotest.test_case "parallel workers pin trace lanes" `Quick parallel_tid_lanes ] );
      ( "report",
        [ Alcotest.test_case "capacity report is byte-deterministic" `Slow report_determinism ] );
      ( "scenario",
        [
          Alcotest.test_case "seeded worlds digest by entropy" `Quick scenario_digests;
          Alcotest.test_case "globals restored when the body raises" `Quick
            scenario_restores_on_raise;
        ] );
      ( "runtime",
        [ Alcotest.test_case "disabled mode allocates nothing" `Quick disabled_is_noop ] );
      ( "channel",
        [ Alcotest.test_case "round trips, observe, reset" `Quick channel_round_trips ] );
      ( "events",
        [ Alcotest.test_case "privacy across all three protocols" `Slow event_privacy ] );
    ]
