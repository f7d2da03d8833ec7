(* Schedule-exploration fault matrix for the fiber runtime.

   Sixteen concurrent mixed-protocol session fibers (1 FIDO2, 3 TOTP,
   12 password) share one store-backed log behind the Log_async
   admission loop, over the simulated 20 ms RTT link, while per-session
   seeded injectors apply one of three fault profiles: drop, delay,
   crash-restart.  Sixty-four scheduler seeds per profile
   (LARCH_FAULT_FAST=1 trims to 8 for the @swarm/@smoke aliases).

   Invariants per world:

   - every session ends completed or typed-failed — never hung (a hang
     would surface as a Runtime.Deadlock, failing the world);
   - after calming the link: resync succeeds, the client's and the
     log's presignature cursors agree (no presignature double-consumed,
     none lost), and the full audit chain verifies for every session;
   - Log_persist.fsck with the live state as oracle: per-client Merkle
     trees match their records, WAL replay byte-matches live state,
     structural store checks clean;
   - the whole world replays byte-for-byte from its seed alone.

   Seed threading: `--seed S` (stripped before alcotest sees argv) or
   LARCH_SEED=S offsets the seed block, so any CI failure reproduces
   locally with one env var. *)

open Larch_core
module Runtime = Larch_runtime.Runtime
module Fault = Larch_net.Fault
module Transport = Larch_net.Transport

let seed_base, argv =
  let rec strip acc s = function
    | [] -> (s, List.rev acc)
    | "--seed" :: v :: rest -> strip acc (Some v) rest
    | a :: rest -> strip (a :: acc) s rest
  in
  let s, rest = strip [] None (Array.to_list Sys.argv) in
  let s =
    match s with
    | Some s -> s
    | None -> Option.value (Sys.getenv_opt "LARCH_SEED") ~default:"42"
  in
  (s, Array.of_list rest)

let fast = Sys.getenv_opt "LARCH_FAULT_FAST" <> None
let full = Sys.getenv_opt "LARCH_SWARM_FULL" <> None

(* the full 64-seed block is a soak run (LARCH_SWARM_FULL=1); plain
   runtest explores a 16-seed slice, the @swarm alias a fast 8 *)
let matrix_seeds = if full then 64 else if fast then 8 else 16
let sessions_per_world = 16

let () =
  Printf.printf
    "swarm matrix: %d seeds x 3 profiles, %d sessions each, base=%s%s (LARCH_SEED=%s to reproduce)\n%!"
    matrix_seeds sessions_per_world seed_base
    (if full then " [full]" else if fast then " [fast]" else "")
    seed_base

(* --- fault profiles under exploration --- *)

let profiles =
  [
    ("drop", { Fault.calm with Fault.p_drop = 0.12; p_duplicate = 0.06; p_reorder = 0.04 });
    ("delay", { Fault.calm with Fault.p_delay = 0.30; max_delay = 0.4; p_reorder = 0.08 });
    ("crash-restart", { Fault.calm with Fault.p_crash = 0.03; crash_span = 3; p_drop = 0.03 });
  ]

type world = { digest : string; violations : string list; crashes : int }

(* Drive one seeded world: [sessions_per_world] fibers, one shared log,
   one admission loop.  The transcript (completion-order outcomes plus
   aggregate disk/admission state) is digested for the replay check. *)
let run_world ~(entropy : string) ~(profile : Fault.profile) : world =
  let (violations, crashes), digest =
    Scenario.run ~entropy @@ fun w ->
    let disk, log =
      Scenario.store_log ~checkpoint_every:32 ~objection_window:0.05 ~seed:entropy w.rand
    in
    let la = Log_async.create log in
    let violations = ref [] in
    let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
    Runtime.run ~seed:entropy (fun () ->
        Log_async.start la;
        let session i () =
          let cid = Printf.sprintf "s%02d" i in
          let proto =
            if i mod sessions_per_world = 0 then Scenario.Fido2
            else if i mod sessions_per_world <= 3 then Scenario.Totp
            else Scenario.Password
          in
          (* clean enrollment and registration; faults start with auth *)
          let client, login =
            Scenario.session ~net:Larch_net.Netsim.paper_default ~async:la
              ~password:("pw-" ^ cid) ~rp_name:("rp-" ^ cid) ~rand:w.rand log cid
              ~presignatures:(if proto = Fido2 then 2 else 1) [ proto ]
          in
          Transport.set_injector client.Client.transport
            (Some (Fault.seeded ~seed:(entropy ^ "/" ^ cid) profile));
          let outcome =
            match Scenario.attempt (fun () -> login proto) with
            | Completed -> "ok"
            | Transport_error e -> "transport " ^ Transport.failure_to_string e.Transport.last
            | Protocol_error m -> "protocol " ^ m
            | Log_misbehaved m -> "log-misbehaved " ^ m
          in
          (* calm link: the world must be fully recoverable *)
          Transport.set_injector client.Client.transport None;
          (match Client.resync client with
          | () -> ()
          | exception e ->
              violate "%s: resync failed on a calm link: %s" cid (Printexc.to_string e));
          let remaining_c = Client.presignatures_remaining client in
          let remaining_l = Log_service.presignatures_remaining log ~client_id:cid in
          if remaining_c <> remaining_l then
            violate "%s: presig cursors disagree after resync (client %d, log %d)" cid
              remaining_c remaining_l;
          (match Client.audit_verified client with
          | Ok _ -> ()
          | Error m -> violate "%s: audit chain broken after recovery: %s" cid m
          | exception e ->
              violate "%s: audit failed on a calm link: %s" cid (Printexc.to_string e));
          Scenario.line w "%s %s presigs=%d" cid outcome remaining_c
        in
        let fibers =
          List.init sessions_per_world (fun i ->
              Runtime.spawn ~name:(Printf.sprintf "session-%02d" i) (session i))
        in
        List.iter
          (fun p ->
            match Runtime.await p with
            | () -> ()
            | exception e -> violate "session died untyped: %s" (Printexc.to_string e))
          fibers;
        Log_async.stop la);
    (* store oracle: structural checks, tree-vs-records, presignature
       cursor monotonicity, and WAL-replay-vs-live byte match *)
    let fr = Scenario.fsck log in
    if not (Log_persist.fsck_clean fr) then
      violate "fsck dirty: %s" (String.concat "; " fr.Log_persist.issues);
    Scenario.line w "disk %s %s" (Scenario.disk_counts ~rot:false disk) (Scenario.admission_line la);
    (List.rev !violations, (Larch_store.Disk.stats disk).Larch_store.Disk.crashes)
  in
  { digest; violations; crashes }

(* --- the matrix: one alcotest case per profile --- *)

let matrix_case (pname, profile) () =
  let all = ref [] in
  let crashes = ref 0 in
  for k = 0 to matrix_seeds - 1 do
    let entropy = Printf.sprintf "swarm-%s/%s/%d" seed_base pname k in
    let w = run_world ~entropy ~profile in
    crashes := !crashes + w.crashes;
    List.iter (fun v -> all := Printf.sprintf "[seed %d] %s" k v :: !all) w.violations;
    if (k + 1) mod 16 = 0 then Printf.printf "  %s: %d/%d seeds\n%!" pname (k + 1) matrix_seeds
  done;
  (* the crash profile must actually restart the log somewhere in the
     block, or the matrix is silently not exercising recovery *)
  if pname = "crash-restart" && !crashes = 0 then
    Alcotest.failf "%s: no log restart occurred across %d seeds" pname matrix_seeds;
  match !all with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d invariant violation(s):\n%s" pname (List.length vs)
        (String.concat "\n" (List.rev vs))

let replay_case () =
  List.iter
    (fun (pname, profile) ->
      let entropy = Printf.sprintf "swarm-%s/replay/%s" seed_base pname in
      let w1 = run_world ~entropy ~profile in
      let w2 = run_world ~entropy ~profile in
      Alcotest.(check (list string)) (pname ^ ": violations replay") w1.violations w2.violations;
      Alcotest.(check string)
        (Printf.sprintf "%s: transcript replays byte-for-byte (LARCH_SEED=%s)" pname seed_base)
        w1.digest w2.digest)
    profiles

let () =
  Alcotest.run ~argv "swarm"
    [
      ( "matrix",
        List.map
          (fun (pname, p) ->
            Alcotest.test_case (Printf.sprintf "%s x%d seeds" pname matrix_seeds) `Slow
              (matrix_case (pname, p)))
          profiles );
      ("replay", [ Alcotest.test_case "same seed, same world" `Quick replay_case ]);
    ]
