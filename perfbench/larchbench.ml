(* The Larch benchmark: per-protocol login latency, log-fleet throughput,
   and a traced per-layer split.

     larchbench --workload fido2-login|totp-login|log-fleet --seed N
                --seconds S --trace 0|1 [--tiny] [--tamper]

   Every workload drives the real stack through its public entry points:
   clients ([Client]) and relying parties ([Relying_party]) run as fibers
   under [Larch_runtime] against one store-backed [Log_service] behind one
   [Log_async] admission loop, over the paper's link model
   ([Netsim.paper_default]: 20 ms RTT, 100 Mbps).  Every input — keys,
   challenges, relying-party picks, the disk's fault DRBG and the fiber
   schedule — is drawn from the seed.

   --trace 0 measures the timed phase for S wall seconds and prints the
   end-to-end metrics.  --trace 1 runs a fixed, seed-determined number of
   operations twice on identical worlds — untraced, then with [Larch_obs]
   tracing on — and prints the per-layer metrics: counts from the untraced
   pass (so they repeat exactly for a seed), times from the traced pass's
   spans.  The last stdout line is one JSON object.  The command exits 1 if
   any correctness gate failed: the relying party rejected a login, an
   audit failed or did not list exactly the logins the client made, or the
   log's fsck was not clean.  perfbench/README.md defines every metric. *)

open Larch_core
module Runtime = Larch_runtime.Runtime
module Transport = Larch_net.Transport
module Channel = Larch_net.Channel
module Netsim = Larch_net.Netsim
module Clock = Larch_util.Clock
module Trace = Larch_obs.Trace
module Disk = Larch_store.Disk
module Drbg = Larch_hash.Drbg

let net = Netsim.paper_default
let wall () = Int64.to_float (Trace.now_ns ()) /. 1e9
let span = Trace.with_span

(* ---------- command line ---------- *)

type kind = Fido2 | Totp | Fleet

type opts = {
  kind : kind;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test sizes *)
  tamper : bool;  (** corrupt one password before the relying party sees it *)
}

let usage () =
  prerr_endline
    "usage: larchbench --workload fido2-login|totp-login|log-fleet --seed N --seconds S \
     --trace 0|1 [--tiny] [--tamper]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false and tamper = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--tamper" :: rest -> tamper := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let kind =
    match !workload with
    | "fido2-login" -> Fido2
    | "totp-login" -> Totp
    | "log-fleet" -> Fleet
    | _ -> usage ()
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. ->
      { kind; workload = !workload; seed; seconds; trace; tiny = !tiny; tamper = !tamper }
  | _ -> usage ()

(* ---------- statistics ---------- *)

let sorted l = List.sort compare l
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let mean l = sum Fun.id l /. float_of_int (List.length l)

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, but never
   below the median: with fewer than 20 samples no such percentile lies
   above it; returns the value, the percentile and the sample count. *)
let tail l =
  let n = List.length l in
  if n < 20 then (median l, 50., n)
  else (List.nth (sorted l) (n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(* ---------- machine speed ---------- *)

(* The machines this runs on are shared: their speed drifts by a quarter
   or more within minutes, which no run length averages away.  So reps of
   a fixed calibration kernel run before every op and before every
   set-up.  The kernel mixes integers and passes over a 256 KiB buffer; it
   allocates nothing and shares no code with the program under test.
   Every reported wall time is multiplied by [nominal_rep_ms] / (the mean
   time of the reps run in the same timed phase or set-up, leaving out
   reps slower than three times their median, i.e. preempted ones), so it
   reads as on a machine that runs one rep in [nominal_rep_ms], and a
   change to the program moves it exactly as it moves wall time. *)
let nominal_rep_ms = 0.75

(* (start, ms) of every rep *)
let reps : (float * float) list ref = ref []
let calib_buf = Bytes.make 262144 'a'

let calib_rep () =
  let t0 = wall () in
  let x = ref 88172645463325252 in
  for _ = 1 to 20000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    x := !x * 2654435761
  done;
  let n = Bytes.length calib_buf in
  for i = 0 to n - 1 do
    let j = i * 7919 land (n - 1) in
    Bytes.unsafe_set calib_buf i
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get calib_buf j) + i + !x) land 255))
  done;
  reps := (t0, (wall () -. t0) *. 1e3) :: !reps

(* the factor for the wall interval [t0, t0 + secs], from the reps run in it *)
let speed_factor (t0, secs) =
  let ms =
    List.filter_map (fun (at, ms) -> if at >= t0 && at <= t0 +. secs then Some ms else None) !reps
  in
  let cap = 3. *. median ms in
  nominal_rep_ms /. mean (List.filter (fun r -> r <= cap) ms)

(* ---------- workload shapes ---------- *)

type shape = {
  sessions : int;
  rps : int;  (** relying parties per client *)
  audit_every : int;  (** op k (1-based) of a session is an audit when k mod this = 0 *)
  setups : int;  (** worlds built per run; setup_s is their median *)
  traced_ops : int;  (** ops per session in each --trace 1 pass *)
  presigs : int;  (** FIDO2 presignatures enrolled per client *)
  reps_per_op : int;  (** calibration reps before each op: more where ops take seconds *)
}

(* FIDO2 and log-fleet audit on every 5th op.  A TOTP login takes seconds,
   so 1-in-5 would leave about one audit per run: it audits after every
   login instead. *)
let shape (o : opts) : shape =
  let s = int_of_float (Float.ceil o.seconds) in
  let fido2 =
    { sessions = 1; rps = 4; audit_every = 5; setups = 3; traced_ops = max 5 s;
      presigs = 16 + (10 * s); reps_per_op = 1 }
  in
  let totp =
    { sessions = 1; rps = 20; audit_every = 2; setups = 3; traced_ops = 2 * max 2 (s / 8);
      presigs = 1; reps_per_op = 4 }
  in
  let fleet =
    { sessions = 16; rps = 8; audit_every = 5; setups = 3; traced_ops = 5 * max 1 (s / 10);
      presigs = 1; reps_per_op = 1 }
  in
  match (o.kind, o.tiny) with
  | Fido2, false -> fido2
  | Totp, false -> totp
  | Fleet, false -> fleet
  | Fido2, true -> { fido2 with setups = 1; traced_ops = 5; presigs = 16 }
  | Totp, true -> { totp with rps = 2; setups = 1; traced_ops = 2 }
  | Fleet, true -> { fleet with sessions = 2; setups = 1; traced_ops = 5 }

(* ---------- the world ---------- *)

type login = {
  wall_ms : float;  (** wall time of the authenticate call *)
  model_ms : float;  (** Netsim time of its exact bytes and rounds *)
  log_ms : float;  (** wall time of the log-side closures it ran *)
  up : int;
  down : int;
  rounds : int;
  offline_b : int;  (** TOTP offline-phase bytes *)
  online_b : int;  (** TOTP online-phase bytes *)
  timings : Larch_mpc.Yao.timings option;
}

type session = {
  id : string;
  client : Client.t;
  rps : (string * Relying_party.t) array;
  pick : Drbg.t;  (** relying-party choice *)
  mutable expected : (Types.auth_method * string) list;  (** logins made *)
  mutable audited_n : int;  (** entries listed by the last audit *)
  totp_step : (string, int) Hashtbl.t;  (** last 30 s step each TOTP RP was used in *)
  mutable tamper : bool;
  mutable log_s : float;  (** wall seconds of this client's log-side closures *)
}

type world = {
  log : Log_service.t;
  disk : Disk.t;
  la : Log_async.t;
  ss : session array;
  mutable logins : login list;
  mutable audits_ms : float list;
  mutable audit_records : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fail w msg =
  w.failed <- w.failed + 1;
  if List.length w.failures < 8 then w.failures <- msg :: w.failures

(* Log_async installs itself as a transport's executor.  To time each
   log-side closure at that seam without touching the library, the
   client's transport gets the bench's executor, which wraps the closure
   and forwards it through a private transport attached to the admission
   loop.  Under the default (off) admission policy the loop ignores the
   deadline and only uses the request bytes to batch-verify two or more
   same-instant FIDO2 records, which a single-client workload never has. *)
let attach w (s : session) =
  let probe = Transport.create ~label:"bench.exec" (Channel.create ~label:"bench.exec" ()) in
  Log_async.attach w.la ~client_id:s.id probe;
  Transport.set_executor s.client.Client.transport
    (Some
       (fun ~op ~req:_ ~deadline:_ closure ->
         span "bench.exec.wait" @@ fun () ->
         Transport.invoke probe ~op (fun () ->
             let t0 = wall () in
             span "bench.exec" closure;
             s.log_s <- s.log_s +. (wall () -. t0))))

let rp_name i = Printf.sprintf "rp%02d.example" i
let base_time = 1_700_000_010. (* a 30 s TOTP step boundary *)

let new_session (sh : shape) ~log ~root i =
  let id = Printf.sprintf "user%02d" i in
  let drbg name = Drbg.create ~entropy:(Printf.sprintf "%s/%s/%s" root id name) in
  let crand = drbg "client" and rrand = drbg "rp" in
  let client =
    Client.create ~net ~client_id:id ~account_password:("pw-" ^ id) ~log
      ~rand_bytes:(Drbg.generate crand) ()
  in
  (* FIDO2 proves on 2 domains; the other methods never use more *)
  Client.set_domains client 2;
  let rps =
    Array.init sh.rps (fun k ->
        let name = rp_name k in
        (name, Relying_party.create ~name ~rand_bytes:(Drbg.generate rrand) ()))
  in
  {
    id;
    client;
    rps;
    pick = drbg "pick";
    expected = [];
    audited_n = 0;
    totp_step = Hashtbl.create 8;
    tamper = false;
    log_s = 0.;
  }

let register o (s : session) =
  span "bench.register" @@ fun () ->
  Array.iter
    (fun (name, rp) ->
      match o.kind with
      | Fido2 ->
          let pk = Client.register_fido2 s.client ~rp_name:name in
          Relying_party.fido2_register rp ~username:s.id ~pk
      | Totp ->
          let totp_key = Relying_party.totp_register rp ~username:s.id in
          Client.register_totp s.client ~rp_name:name ~totp_key
      | Fleet ->
          let password = Client.register_password s.client ~rp_name:name in
          Relying_party.password_set rp ~username:s.id ~password)
    s.rps

let pick_rp (s : session) =
  let b = Drbg.generate s.pick 2 in
  s.rps.(((Char.code b.[0] * 256) + Char.code b.[1]) mod Array.length s.rps)

(* One login against a seed-picked relying party, checked by that party.
   Latency is the paper's compute + network: the call's wall time plus the
   link model applied to the exact bytes and rounds it put on all three of
   the client's channels. *)
let login o w (s : session) =
  let name, rp = pick_rp s in
  let c = s.client in
  (* a fresh accounting window, so the snapshots below hold exactly this
     login's bytes and rounds *)
  Client.reset_channels c;
  let log0 = s.log_s in
  let timed f =
    let t0 = wall () in
    let r = span "bench.auth" f in
    (r, wall () -. t0)
  in
  let call, timings, check =
    match o.kind with
    | Fido2 ->
        let challenge = Relying_party.fido2_challenge rp ~username:s.id in
        let a, call = timed (fun () -> Client.authenticate_fido2 c ~rp_name:name ~challenge) in
        (call, None, fun () -> Relying_party.fido2_login rp ~username:s.id a)
    | Totp ->
        (* the relying party's replay cache refuses a second login in one
           30 s step: move the simulated clock to the next step first *)
        (match Hashtbl.find_opt s.totp_step name with
        | Some k when float_of_int (k + 1) *. 30. > Clock.now () ->
            Runtime.sleep_until (float_of_int (k + 1) *. 30.)
        | _ -> ());
        let time = Clock.now () in
        Hashtbl.replace s.totp_step name (int_of_float (time /. 30.));
        let out, call = timed (fun () -> Client.authenticate_totp_detailed c ~rp_name:name ~time) in
        ( call,
          Some out.Totp_protocol.timings,
          fun () -> Relying_party.totp_login rp ~username:s.id ~time out.Totp_protocol.code )
    | Fleet ->
        let pw, call = timed (fun () -> Client.authenticate_password c ~rp_name:name) in
        let pw =
          if s.tamper then begin
            s.tamper <- false;
            String.mapi (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch) pw
          end
          else pw
        in
        (call, None, fun () -> Relying_party.password_login rp ~username:s.id ~password:pw)
  in
  let snap =
    List.map Channel.snapshot [ c.Client.chan; c.Client.totp_offline; c.Client.totp_online ]
  in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 snap in
  let bytes k = let x = List.nth snap k in x.Channel.up + x.Channel.down in
  let up = total (fun x -> x.Channel.up) and down = total (fun x -> x.Channel.down) in
  let rounds = total (fun x -> x.Channel.rts) in
  let method_ =
    match o.kind with Fido2 -> Types.Fido2 | Totp -> Types.Totp | Fleet -> Types.Password
  in
  s.expected <- (method_, name) :: s.expected;
  w.logins <-
    {
      wall_ms = call *. 1e3;
      model_ms = Netsim.transfer_time net ~bytes:(up + down) ~rounds *. 1e3;
      log_ms = (s.log_s -. log0) *. 1e3;
      up;
      down;
      rounds;
      offline_b = bytes 1;
      online_b = bytes 2;
      timings;
    }
    :: w.logins;
  if not (span "bench.rp_check" check) then
    fail w (Printf.sprintf "%s: %s rejected the login" s.id name)

(* A verified audit must succeed and list exactly the logins this client
   made, in any order. *)
let audit w (s : session) =
  let t0 = wall () in
  let r = span "bench.audit" (fun () -> Client.audit_verified s.client) in
  let ms = (wall () -. t0) *. 1e3 in
  match r with
  | Error e -> fail w (Printf.sprintf "%s: audit failed: %s" s.id e)
  | Ok entries ->
      w.audits_ms <- ms :: w.audits_ms;
      w.audit_records <- w.audit_records + (List.length entries - s.audited_n);
      s.audited_n <- List.length entries;
      let seen =
        List.map (fun e -> (e.Client.method_, Option.value e.Client.rp ~default:"?")) entries
      in
      if sorted seen <> sorted s.expected then
        fail w
          (Printf.sprintf "%s: audit lists %d entries, the client made %d logins" s.id
             (List.length seen) (List.length s.expected))

(* Any exception from an operation is a failed operation, not a crash. *)
let guarded w (s : session) what f =
  w.attempted <- w.attempted + 1;
  try f () with e -> fail w (Printf.sprintf "%s: %s raised %s" s.id what (Printexc.to_string e))

let op o sh w s k =
  for _ = 1 to sh.reps_per_op do
    calib_rep ()
  done;
  if k mod sh.audit_every = 0 then guarded w s "audit" (fun () -> audit w s)
  else guarded w s "login" (fun () -> login o w s)

(* Build the world: log and in-memory store, enrollment (presignature
   batch sized for the run), registrations, and one warm-up login so lazy
   circuit and plan set-up is paid here rather than by the first timed
   login.  Runs inside the runtime. *)
let setup o sh ~root =
  let calib0 = wall () in
  for _ = 1 to 16 do
    calib_rep ()
  done;
  let t0 = wall () in
  let lrand = Drbg.create ~entropy:(root ^ "/log") in
  let disk = Disk.create ~seed:root () in
  let store = Larch_store.Store.open_ ~disk ~dir:"log" () in
  let log = Log_service.create ~store ~rand_bytes:(Drbg.generate lrand) () in
  let la = Log_async.create log in
  Log_async.start la;
  let w =
    {
      log;
      disk;
      la;
      ss = Array.init sh.sessions (new_session sh ~log ~root);
      logins = [];
      audits_ms = [];
      audit_records = 0;
      attempted = 0;
      failed = 0;
      failures = [];
    }
  in
  Array.iter
    (fun s ->
      attach w s;
      span "bench.enroll" (fun () -> Client.enroll ~presignature_count:sh.presigs s.client);
      register o s)
    w.ss;
  guarded w w.ss.(0) "warm-up login" (fun () -> login o w w.ss.(0));
  (* the set-up time, and the interval whose reps scale it *)
  (w, wall () -. t0, (calib0, wall () -. calib0))

type phase = {
  w : world;
  setup_s : float;
  setup_calib : float * float;  (** the set-up with its reps, as (start, seconds) *)
  timed : float * float;  (** the timed phase, as (start, seconds) *)
  logins : login list;  (** the phase's logins *)
  audits_ms : float list;  (** the phase's audits *)
  trace_ns : int64 * int64;  (** the phase, on the trace clock *)
  disk0 : Disk.stats;
  disk1 : Disk.stats;
  la0 : Log_async.stats;
  la1 : Log_async.stats;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  batches : int * int;  (** admission batches, batched requests during the phase *)
}

let rec take n = function x :: l when n > 0 -> x :: take (n - 1) l | _ -> []

(* One world: set up, run the timed phase (for [`Wall] seconds of wall
   time, or [`Ops] operations per session), then the final gates. *)
let run_world o sh ~root ~(stop : [ `Wall of float | `Ops of int ]) =
  Clock.set base_time;
  Transport.reset_ordinals ();
  Runtime.run ~seed:(root ^ "/schedule") (fun () ->
      (* traced: the runtime's own hook (an in-fiber clock advance becomes
         a virtual sleep) plus a span, so the trace shows when a fiber is
         parked on the simulated link *)
      if Larch_obs.Runtime.tracing_enabled () then
        Clock.set_advance_hook
          (Some
             (fun dt ->
               Runtime.in_fiber ()
               && (span "bench.park" (fun () -> Runtime.sleep dt);
                   true)));
      let w, setup_s, setup_calib = setup o sh ~root in
      if o.tamper then w.ss.(0).tamper <- true;
      let logins0 = List.length w.logins and audits0 = List.length w.audits_ms in
      let disk0 = Disk.stats w.disk and la0 = Log_async.stats w.la in
      let b0 = (Log_async.batches w.la, Log_async.batched_requests w.la) in
      let gc0 = Gc.quick_stat () in
      let ns0 = Trace.now_ns () in
      let t0 = wall () in
      (* every session gets through at least one audit cycle, so no
         median lacks samples; a FIDO2 client that used up its
         presignatures ends its phase *)
      let more s k =
        (match stop with `Wall d -> wall () -. t0 < d || k <= sh.audit_every | `Ops n -> k <= n)
        && not (o.kind = Fido2 && Client.presignatures_remaining s.client = 0)
      in
      let fibers =
        Array.map
          (fun s ->
            Runtime.spawn ~name:s.id (fun () ->
                let k = ref 1 in
                while more s !k do
                  op o sh w s !k;
                  incr k
                done))
          w.ss
      in
      Array.iter Runtime.await fibers;
      let timed = (t0, wall () -. t0) in
      let ns1 = Trace.now_ns () in
      let gc1 = Gc.quick_stat () in
      let p =
        {
          w;
          setup_s;
          setup_calib;
          timed;
          logins = take (List.length w.logins - logins0) w.logins;
          audits_ms = take (List.length w.audits_ms - audits0) w.audits_ms;
          trace_ns = (ns0, ns1);
          disk0;
          disk1 = Disk.stats w.disk;
          la0;
          la1 = Log_async.stats w.la;
          gc0;
          gc1;
          batches = (Log_async.batches w.la - fst b0, Log_async.batched_requests w.la - snd b0);
        }
      in
      (* gates: every client's final audit, then the store's fsck *)
      Array.iter (fun s -> guarded w s "final audit" (fun () -> audit w s)) w.ss;
      w.attempted <- w.attempted + 1;
      (match Log_service.fsck w.log with
      | Some r when Log_persist.fsck_clean r -> ()
      | Some r -> fail w ("fsck: " ^ String.concat "; " r.Log_persist.issues)
      | None -> fail w "fsck: no store attached");
      Log_async.stop w.la;
      p)

let latency f l = (l.wall_ms *. f) +. l.model_ms

let peak_rss_mib () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      | _ -> go ()
    in
    let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
    float_of_int kb /. 1024.
  with _ -> nan

(* ---------- trace analysis ---------- *)

(* Each fiber's spans share a trace row (its lane) and nest properly,
   whatever parent the domain-wide span stack recorded for them.  In the
   traced pass every point where a client fiber can suspend is covered by
   a bench span on its lane — "bench.park" for simulated link time,
   "bench.exec.wait" for a request handed to the admission loop — so time
   on a lane that no span below a login covers is that fiber running
   untraced code.  Rows 1000-1999 are Parallel worker domains, covered by
   the span that spawned them. *)

type sp = { name : string; lo : int64; hi : int64 }

(* the parts of [lo, hi] that no interval in [ivs] covers *)
let gaps ~lo ~hi (ivs : (int64 * int64) list) : (int64 * int64) list =
  let acc = ref [] and cur = ref lo in
  List.iter
    (fun (a, b) ->
      let a = max a lo and b = min b hi in
      if b > a then begin
        if a > !cur then acc := (!cur, a) :: !acc;
        if b > !cur then cur := b
      end)
    (List.sort compare ivs);
  if hi > !cur then acc := (!cur, hi) :: !acc;
  !acc

let len ivs = List.fold_left (fun acc (a, b) -> Int64.add acc (Int64.sub b a)) 0L ivs

type analysis = {
  self_ms : string -> float;  (** summed self time of spans with this name *)
  dur_ms : string -> float;  (** summed duration *)
  unattributed_ms : float;
      (** time inside logins covered by no span below the bench's
          "bench.auth" and the program's per-operation "client.*" spans *)
}

let analyse (all : Trace.span list) : analysis =
  let lanes = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      let l = s.Trace.domain in
      if not (l >= 1000 && l < 2000) then
        Hashtbl.replace lanes l
          ({ name = s.Trace.name; lo = s.Trace.start_ns;
             hi = Int64.add s.Trace.start_ns s.Trace.dur_ns }
          :: Option.value ~default:[] (Hashtbl.find_opt lanes l)))
    all;
  let self_tbl = Hashtbl.create 64 and dur_tbl = Hashtbl.create 64 in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let bump tbl k v = Hashtbl.replace tbl k (v +. get tbl k) in
  let unattributed = ref 0L in
  Hashtbl.iter
    (fun _ spans ->
      (* by start, the enclosing span first *)
      let a =
        Array.of_list
          (List.sort (fun x y -> compare (x.lo, Int64.neg x.hi) (y.lo, Int64.neg y.hi)) spans)
      in
      Array.iteri
        (fun i x ->
          (* descendants: the following spans that start before x ends *)
          let desc = ref [] and j = ref (i + 1) in
          while !j < Array.length a && a.(!j).lo < x.hi do
            desc := a.(!j) :: !desc;
            incr j
          done;
          let ivs keep = List.filter_map (fun d -> if keep d then Some (d.lo, d.hi) else None) !desc in
          let self = len (gaps ~lo:x.lo ~hi:x.hi (ivs (fun _ -> true))) in
          bump self_tbl x.name (Trace.ms_of_ns self);
          bump dur_tbl x.name (Trace.ms_of_ns (Int64.sub x.hi x.lo));
          if x.name = "bench.auth" then begin
            let umbrella d = String.length d.name > 7 && String.sub d.name 0 7 = "client." in
            let g = gaps ~lo:x.lo ~hi:x.hi (ivs (fun d -> not (umbrella d))) in
            unattributed := Int64.add !unattributed (len g)
          end)
        a)
    lanes;
  { self_ms = get self_tbl; dur_ms = get dur_tbl; unattributed_ms = Trace.ms_of_ns !unattributed }

(* ---------- output ---------- *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }
(* A metric that came out as no number (say, a median of no samples) is
   a failed check of the run itself. *)
let emit o ~attempted ~failed ~failures metrics =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  let attempted = attempted + List.length bad and failed = failed + List.length bad in
  let failures = failures @ List.map (fun x -> x.m_name ^ " is not a number") bad in
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "workload %s  seed %d  %s\n" o.workload o.seed
    (if o.trace then "traced (per-layer)" else "untraced (end-to-end)");
  List.iter (fun x -> Printf.printf "  %-32s %14.4f %s\n" x.m_name x.value x.unit_) metrics;
  Printf.printf "  fail_ratio %d/%d = %.4f\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) (List.rev failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name (json_num x.value)
              x.unit_)
          metrics));
  exit (if failed = 0 then 0 else 1)

let root_of o = Printf.sprintf "larchbench/%s/%d" o.workload o.seed
let count_all f ps = List.fold_left (fun acc p -> acc + f p.w) 0 ps

let end_to_end o sh =
  let root = root_of o in
  (* extra worlds for the setup median; the last one is measured *)
  let extra = List.init (sh.setups - 1) (fun _ -> run_world o sh ~root ~stop:(`Ops 0)) in
  let p = run_world o sh ~root ~stop:(`Wall o.seconds) in
  let all = p :: extra in
  let f = speed_factor p.timed in
  let lat = List.map (latency f) p.logins in
  let n = float_of_int (max 1 (List.length p.logins)) in
  let tail_v, tail_pct, tail_n = tail lat in
  Printf.printf
    "  calibration: mean rep %.4f ms in the timed phase, so wall times x %.4f; unscaled \
     auth_p50_ms %.4f\n"
    (nominal_rep_ms /. f) f
    (median (List.map (latency 1.) p.logins));
  Printf.printf "  auth_tail_ms is p%.1f of %d logins; %d audits in the timed phase\n" tail_pct
    tail_n (List.length p.audits_ms);
  emit o
    ~attempted:(count_all (fun w -> w.attempted) all)
    ~failed:(count_all (fun w -> w.failed) all)
    ~failures:(List.concat_map (fun p -> p.w.failures) all)
    [
      m "setup_s" "s" (median (List.map (fun p -> p.setup_s *. speed_factor p.setup_calib) all));
      m "auth_p50_ms" "ms" (median lat);
      m "auth_tail_ms" "ms" tail_v;
      m "auths_per_s" "1/s" (float_of_int (List.length p.logins) /. (snd p.timed *. f));
      m "audit_p50_ms" "ms" (median p.audits_ms *. f);
      m "log_ms_per_auth" "ms" (median (List.map (fun l -> l.log_ms) p.logins) *. f);
      m "wire_kib_per_auth" "KiB"
        (sum (fun l -> float_of_int (l.up + l.down)) p.logins /. 1024. /. n);
      m "peak_rss_mib" "MiB" (peak_rss_mib ());
    ]

let per_layer o sh =
  let root = root_of o in
  let stop = `Ops sh.traced_ops in
  (* a set-up-only world first, so that both passes start warm *)
  ignore (run_world o sh ~root ~stop:(`Ops 0));
  (* pass 1, untraced: the counts, and the baseline for the overhead *)
  let p = run_world o sh ~root ~stop in
  (* pass 2, traced, on an identical world *)
  Trace.reset ();
  let epoch = Trace.now_ns () in
  Larch_obs.Runtime.set_tracing true;
  let q = run_world o sh ~root ~stop in
  Larch_obs.Runtime.set_tracing false;
  let all = Trace.spans () in
  (try
     if not (Sys.file_exists ".perfbench-out") then Sys.mkdir ".perfbench-out" 0o755;
     Trace.write_chrome_json (Printf.sprintf ".perfbench-out/trace-%s-%d.json" o.workload o.seed)
   with Sys_error e -> Printf.printf "  (trace not written: %s)\n" e);
  (* per-login times come from the timed phase's spans only; the
     presignature batches are generated during set-up *)
  let lo = Int64.sub (fst q.trace_ns) epoch and hi = Int64.sub (snd q.trace_ns) epoch in
  let a =
    analyse (List.filter (fun (s : Trace.span) -> s.Trace.start_ns >= lo && s.Trace.start_ns <= hi) all)
  in
  let presign_ms =
    sum
      (fun (s : Trace.span) ->
        if s.Trace.name = "ecdsa2p.presign_batch" then Trace.ms_of_ns s.Trace.dur_ns else 0.)
      all
  in
  let ls = p.logins in
  let n = float_of_int (max 1 (List.length ls)) in
  let per_auth v = v /. n in
  (* each pass's wall times are scaled by that pass's factor *)
  let fp = speed_factor p.timed and fq = speed_factor q.timed in
  let traced name v = m name "ms" (v *. fq) and untraced name v = m name "ms" (v *. fp) in
  let ds f = float_of_int (f p.disk1 - f p.disk0) in
  let tsum f = sum (fun l -> match l.timings with Some t -> f t *. 1e3 | None -> 0.) ls in
  let net_stats f =
    Array.fold_left (fun acc s -> acc + f (Transport.stats s.client.Client.transport)) 0 p.w.ss
  in
  let words g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let p50 x = median (List.map (latency (speed_factor x.timed)) x.logins) in
  let log_ops =
    [ "fido2.auth_begin"; "fido2.auth_commit"; "fido2.auth_finish"; "totp.auth"; "pw.auth"; "audit.head" ]
  in
  let served = p.la1.Log_async.served - p.la0.Log_async.served in
  emit o
    ~attempted:(count_all (fun w -> w.attempted) [ p; q ])
    ~failed:(count_all (fun w -> w.failed) [ p; q ])
    ~failures:(p.w.failures @ q.w.failures)
    ([
       traced "zkboo.prove_ms" (per_auth (a.dur_ms "zkboo.prove"));
       traced "zkboo.verify_ms" (per_auth (a.dur_ms "zkboo.verify"));
       traced "ecdsa2p.sign_ms"
         (per_auth (a.self_ms "ecdsa2p.sign.client" +. a.dur_ms "ecdsa2p.sign.log"));
       m "ecdsa2p.presign_ms_per_sig" "ms"
         (presign_ms *. speed_factor q.setup_calib /. float_of_int (sh.presigs * sh.sessions));
       untraced "mpc.offline_ms" (per_auth (tsum (fun t -> t.Larch_mpc.Yao.offline_seconds)));
       untraced "mpc.online_ms" (per_auth (tsum (fun t -> t.Larch_mpc.Yao.online_seconds)));
       untraced "mpc.evaluator_ms" (per_auth (tsum (fun t -> t.Larch_mpc.Yao.evaluator_seconds)));
       m "mpc.offline_kib" "KiB" (per_auth (sum (fun l -> float_of_int l.offline_b) ls /. 1024.));
       m "mpc.online_kib" "KiB" (per_auth (sum (fun l -> float_of_int l.online_b) ls /. 1024.));
       traced "sigma.pw_prove_ms" (per_auth (a.dur_ms "pw.client.prove"));
       traced "sigma.pw_verify_ms" (per_auth (a.dur_ms "pw.log.verify"));
     ]
    @ List.map
        (fun op -> traced (Printf.sprintf "log.%s.ms" op) (per_auth (a.self_ms ("log." ^ op))))
        log_ops
    @ [
        traced "log.busy_ms_per_auth" (per_auth (a.dur_ms "bench.exec"));
        traced "log_async.wait_ms_per_auth"
          (per_auth (a.dur_ms "bench.exec.wait" -. a.dur_ms "bench.exec"));
        m "log_async.served" "count" (float_of_int served);
        m "log_async.mean_batch" "count"
          (float_of_int served /. float_of_int (max 1 (fst p.batches)));
        m "log_async.batched_requests" "count" (float_of_int (snd p.batches));
        m "log_async.max_queue" "count" (float_of_int p.la1.Log_async.max_queue);
        m "log_async.queue_delay_max_ms" "ms" (p.la1.Log_async.queue_delay_max *. 1e3);
        m "store.appends_per_auth" "count" (per_auth (ds (fun d -> d.Disk.appends)));
        m "store.fsyncs_per_auth" "count" (per_auth (ds (fun d -> d.Disk.fsyncs)));
        m "store.kib_written_per_auth" "KiB"
          (per_auth (ds (fun d -> d.Disk.bytes_written) /. 1024.));
        m "merkle.records_per_audit" "count"
          (float_of_int p.w.audit_records /. float_of_int (max 1 (List.length p.w.audits_ms)));
        traced "merkle.client_audit_ms"
          (a.self_ms "client.audit.verified" /. float_of_int (max 1 (List.length q.audits_ms)));
        m "net.kib_up_per_auth" "KiB" (per_auth (sum (fun l -> float_of_int l.up) ls /. 1024.));
        m "net.kib_down_per_auth" "KiB" (per_auth (sum (fun l -> float_of_int l.down) ls /. 1024.));
        m "net.rounds_per_auth" "count" (per_auth (sum (fun l -> float_of_int l.rounds) ls));
        m "net.model_ms_per_auth" "ms" (per_auth (sum (fun l -> l.model_ms) ls));
        m "net.retries" "count" (float_of_int (net_stats (fun s -> s.Transport.retries)));
        m "net.overloads" "count" (float_of_int (net_stats (fun s -> s.Transport.overloads)));
        traced "runtime.parked_ms_per_auth" (per_auth (a.dur_ms "bench.park"));
        m "gc.alloc_mib_per_auth" "MiB"
          (per_auth ((words p.gc1 -. words p.gc0) *. float_of_int (Sys.word_size / 8) /. 1048576.));
        m "gc.major_per_auth" "count"
          (per_auth (float_of_int (p.gc1.Gc.major_collections - p.gc0.Gc.major_collections)));
        traced "unattributed.ms_per_auth" (per_auth a.unattributed_ms);
        m "trace.overhead_pct" "%" (100. *. (p50 q -. p50 p) /. p50 p);
      ])

let () =
  let o = parse_args () in
  let sh = shape o in
  if o.trace then per_layer o sh else end_to_end o sh
