(* Crash-consistent storage: the in-memory faultable disk, the
   checksummed WAL, generation snapshots, and the log service running on
   top of them.

   Layers of coverage:

   - disk: fsync semantics under crash (clean and seeded-faulty
     profiles), deterministic crash fates for equal seeds;
   - wal: framing round-trip, torn-tail detection and repair, every
     single-byte flip caught by the CRC, group commit batching;
   - store: un-flushed records lost on kill while flushed ones survive,
     checkpoint generation roll with fallback across a rotted snapshot;
   - service: [Log_service.restart] as a genuine kill-and-recover, the
     §9 backup blob surviving a crash, fsck flagging injected rot;
   - transport: the bounded LRU replay cache (cap, eviction accounting,
     recency, duplicates still answered within the window);
   - property: for a seeded workload killed at ANY WAL byte offset,
     recovery lands exactly on the floor record boundary (records are
     atomically present-or-absent) and every fsck invariant holds —
     including across [prune_records] history truncation. *)

open Larch_core
module Disk = Larch_store.Disk
module Store = Larch_store.Store
module Wal = Larch_store.Wal
module Snapshot = Larch_store.Snapshot
module Channel = Larch_net.Channel
module Transport = Larch_net.Transport
module Fault = Larch_net.Fault
module Clock = Larch_util.Clock

let base_time = 1_754_000_000.

let with_clock (f : unit -> 'a) : 'a =
  Clock.set base_time;
  Fun.protect ~finally:Clock.use_real_time f

let sha s = Larch_hash.Sha256.digest s
let drbg_rand entropy = Larch_hash.Drbg.rand_bytes_of (Larch_hash.Drbg.create ~entropy)

(* --- a deterministic store-backed world ------------------------------- *)

let dir = "log"

let store_world ?(entropy = "test-store") ?(profile = Disk.clean_profile)
    ?(checkpoint_every = 100_000) () =
  let rand = drbg_rand entropy in
  let disk = Disk.create ~seed:entropy ~profile () in
  let store = Store.open_ ~disk ~dir () in
  let log = Log_service.create ~checkpoint_every ~store ~rand_bytes:rand () in
  let client = Client.create ~client_id:"alice" ~account_password:"pw" ~log ~rand_bytes:rand () in
  (log, client, disk, rand)

(* All three methods, a stored backup, and a prune — so the WAL crosses
   every op family the recovery path has to handle. *)
let drive ?(auths = 1) log client rand =
  Client.enroll ~presignature_count:(2 * auths) client;
  let rp = Relying_party.create ~name:"rp.example" ~rand_bytes:rand () in
  let pk = Client.register_fido2 client ~rp_name:"rp.example" in
  Relying_party.fido2_register rp ~username:"alice" ~pk;
  let key = Relying_party.totp_register rp ~username:"alice" in
  Client.register_totp client ~rp_name:"rp.example" ~totp_key:key;
  let site_pw = Client.register_password client ~rp_name:"rp.example" in
  for _ = 1 to auths do
    Clock.advance 30.;
    let challenge = Relying_party.fido2_challenge rp ~username:"alice" in
    ignore (Client.authenticate_fido2 client ~rp_name:"rp.example" ~challenge);
    Clock.advance 30.;
    ignore (Client.authenticate_totp client ~rp_name:"rp.example" ~time:(Clock.now ()));
    Clock.advance 30.;
    ignore (Client.authenticate_password client ~rp_name:"rp.example")
  done;
  ignore (Backup.store client);
  ignore
    (Log_service.prune_records log ~client_id:"alice" ~token:"pw"
       ~older_than:(Clock.now () -. 45.));
  (rp, site_pw)

let live_digest (log : Log_service.t) = sha (Log_codec.encode_clients log.Log_service.clients)

(* --- disk ------------------------------------------------------------- *)

let disk_crash_keeps_synced_prefix () =
  let d = Disk.create ~profile:Disk.clean_profile () in
  Disk.write d ~file:"f" "durable";
  Disk.fsync d ~file:"f";
  Disk.append d ~file:"f" " volatile";
  Alcotest.(check int) "unsynced bytes visible before crash" 16 (Disk.size d ~file:"f");
  Disk.crash d;
  Alcotest.(check (option string)) "crash truncates to the durability line" (Some "durable")
    (Disk.read d ~file:"f");
  Disk.crash d;
  Alcotest.(check (option string)) "second crash is a no-op" (Some "durable")
    (Disk.read d ~file:"f")

let disk_seeded_crash_deterministic () =
  let run () =
    let d = Disk.create ~seed:"crash-fates" () in
    for i = 0 to 4 do
      let f = Printf.sprintf "f%d" i in
      Disk.write d ~file:f (String.make 64 (Char.chr (Char.code 'a' + i)));
      Disk.fsync d ~file:f;
      Disk.append d ~file:f (String.make 48 'z')
    done;
    Disk.crash d;
    Disk.dump d
  in
  Alcotest.(check bool) "same seed, same post-crash bytes" true (run () = run ())

(* --- wal -------------------------------------------------------------- *)

let payloads = [ "alpha"; String.make 100 'b'; "\x00\x01\x02checksummed" ]

let fresh_wal () =
  let d = Disk.create ~profile:Disk.clean_profile () in
  let w, tail, torn = Wal.open_ d ~file:"w" in
  Alcotest.(check bool) "fresh wal empty" true (tail = [] && not torn);
  (d, w)

let wal_roundtrip () =
  let d, w = fresh_wal () in
  List.iter (Wal.append w) payloads;
  Wal.flush w;
  let entries, _, torn = Wal.scan d ~file:"w" in
  Alcotest.(check bool) "no tear" false torn;
  Alcotest.(check (list string)) "records round-trip" payloads entries

let wal_torn_tail_repaired () =
  let d, w = fresh_wal () in
  List.iter (Wal.append_sync w) payloads;
  let full = Disk.size d ~file:"w" in
  (* cut into the last frame: 3 bytes past the second record's end *)
  let boundary = full - (Wal.frame_overhead + String.length (List.nth payloads 2)) in
  Disk.truncate d ~file:"w" (boundary + 3);
  let entries, valid_len, torn = Wal.scan d ~file:"w" in
  Alcotest.(check bool) "tear detected" true torn;
  Alcotest.(check int) "valid prefix ends at the record boundary" boundary valid_len;
  Alcotest.(check int) "two records survive" 2 (List.length entries);
  let _, entries', torn' = Wal.open_ d ~file:"w" in
  Alcotest.(check bool) "open reports the tear it repaired" true torn';
  Alcotest.(check int) "repair truncated the file" boundary (Disk.size d ~file:"w");
  Alcotest.(check int) "repaired wal still has both records" 2 (List.length entries');
  let _, valid_len'', torn'' = Wal.scan d ~file:"w" in
  Alcotest.(check bool) "repaired wal scans clean" false torn'';
  Alcotest.(check int) "nothing beyond the boundary" boundary valid_len''

let wal_any_flip_detected () =
  let d, w = fresh_wal () in
  List.iter (Wal.append_sync w) payloads;
  let img = Disk.dump d in
  let size = Disk.size d ~file:"w" in
  for pos = 0 to size - 1 do
    let d' = Disk.restore img in
    Disk.corrupt d' ~file:"w" ~pos;
    let entries, _, torn = Wal.scan d' ~file:"w" in
    if (not torn) && entries = payloads then
      Alcotest.failf "flip at byte %d of %d went undetected" pos size
  done

let wal_group_commit () =
  let d, w = fresh_wal () in
  let before = Disk.stats d in
  List.iter (Wal.append w) [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ];
  let buffered = Disk.stats d in
  Alcotest.(check int) "appends buffered off-disk" before.Disk.appends buffered.Disk.appends;
  Wal.flush w;
  let after = Disk.stats d in
  Alcotest.(check int) "one disk append per flush" (before.Disk.appends + 1) after.Disk.appends;
  Alcotest.(check int) "one fsync per flush" (before.Disk.fsyncs + 1) after.Disk.fsyncs;
  let entries, _, _ = Wal.scan d ~file:"w" in
  Alcotest.(check int) "all five committed" 5 (List.length entries)

(* --- store ------------------------------------------------------------ *)

let store_unflushed_lost () =
  let d = Disk.create ~profile:Disk.clean_profile () in
  let s = Store.open_ ~disk:d ~dir () in
  Store.append_sync s "durable-1";
  Store.append s "buffered-never-acked";
  Disk.crash d;
  let s' = Store.open_ ~disk:d ~dir () in
  Alcotest.(check (list string)) "only the flushed record survives" [ "durable-1" ]
    (Store.recovered s').Store.tail;
  Store.append_sync s' "durable-2";
  Disk.crash d;
  let s'' = Store.open_ ~disk:d ~dir () in
  Alcotest.(check (list string)) "acked records accumulate across kills"
    [ "durable-1"; "durable-2" ]
    (Store.recovered s'').Store.tail

let store_checkpoint_roll_and_fallback () =
  let d = Disk.create ~profile:Disk.clean_profile () in
  let s = Store.open_ ~disk:d ~dir () in
  List.iter (Store.append_sync s) [ "r1"; "r2" ];
  Store.checkpoint s "state-after-r2";
  Store.append_sync s "r3";
  Alcotest.(check int) "generation rolled" 1 (Store.generation s);
  let s' = Store.open_ ~disk:d ~dir () in
  let r = Store.recovered s' in
  Alcotest.(check (option string)) "snapshot recovered" (Some "state-after-r2") r.Store.snapshot;
  Alcotest.(check (list string)) "tail is the post-snapshot records" [ "r3" ] r.Store.tail;
  (* rot the newest snapshot: recovery must fall back to the previous
     generation and replay its WAL instead *)
  Disk.corrupt d ~file:(dir ^ "/snap.000001") ~pos:8;
  let s'' = Store.open_ ~disk:d ~dir () in
  let r'' = Store.recovered s'' in
  Alcotest.(check int) "damaged snapshot skipped" 1 r''.Store.snapshots_skipped;
  Alcotest.(check (option string)) "fell back to no snapshot" None r''.Store.snapshot;
  Alcotest.(check (list string)) "full history replayed from gen 0" [ "r1"; "r2"; "r3" ]
    r''.Store.tail

(* --- the log service on a store --------------------------------------- *)

let service_restart_is_genuine_kill () =
  with_clock @@ fun () ->
  (* default (faulty) profile: the kill draws crash fates, but since every
     acknowledged op was group-committed there is nothing to lose *)
  let log, client, _disk, rand = store_world ~profile:Disk.default_profile () in
  let rp, _ = drive ~auths:1 log client rand in
  let a = Log_service.audit_with_head log ~client_id:"alice" ~token:"pw" in
  Log_service.restart log;
  let a' = Log_service.audit_with_head log ~client_id:"alice" ~token:"pw" in
  Alcotest.(check int) "tree size survives the kill"
    a.Log_service.sth.Larch_merkle.Merkle.Sth.size
    a'.Log_service.sth.Larch_merkle.Merkle.Sth.size;
  Alcotest.(check int) "records survive the kill"
    (List.length a.Log_service.records)
    (List.length a'.Log_service.records);
  Alcotest.(check bool) "merkle root survives the kill" true
    (a.Log_service.sth.Larch_merkle.Merkle.Sth.root
    = a'.Log_service.sth.Larch_merkle.Merkle.Sth.root);
  (* the recovered log keeps serving: one more authentication per method *)
  Clock.advance 30.;
  let challenge = Relying_party.fido2_challenge rp ~username:"alice" in
  ignore (Client.authenticate_fido2 client ~rp_name:"rp.example" ~challenge);
  Clock.advance 30.;
  ignore (Client.authenticate_password client ~rp_name:"rp.example");
  let a'' = Log_service.audit_with_head log ~client_id:"alice" ~token:"pw" in
  Alcotest.(check int) "post-recovery auths append to the tree"
    (a.Log_service.sth.Larch_merkle.Merkle.Sth.size + 2)
    a''.Log_service.sth.Larch_merkle.Merkle.Sth.size;
  match Log_service.fsck log with
  | Some fr -> Alcotest.(check (list string)) "fsck clean after kill + reuse" [] fr.Log_persist.issues
  | None -> Alcotest.fail "store-backed log must offer fsck"

let backup_survives_crash () =
  with_clock @@ fun () ->
  let log, client, _disk, rand = store_world ~entropy:"backup-crash" () in
  Client.enroll ~presignature_count:1 client;
  let site_pw = Client.register_password client ~rp_name:"mail.example" in
  ignore (Backup.store client);
  Log_service.restart log;
  (* device lost; the blob recovered from the killed-and-restarted log *)
  match Backup.recover ~log ~client_id:"alice" ~account_password:"pw" ~rand_bytes:rand with
  | Error e -> Alcotest.failf "recovery failed after crash: %s" e
  | Ok restored ->
      let pw' = Client.authenticate_password restored ~rp_name:"mail.example" in
      Alcotest.(check string) "recovered device derives the same password" site_pw pw'

let fsck_flags_bit_rot () =
  with_clock @@ fun () ->
  let log, client, disk, rand = store_world ~entropy:"fsck-rot" () in
  ignore (drive ~auths:1 log client rand);
  (match Log_service.fsck log with
  | Some fr ->
      Alcotest.(check bool) "clean store passes fsck" true (Log_persist.fsck_clean fr);
      Alcotest.(check bool) "ops were actually checked" true (fr.Log_persist.wal_ops > 0)
  | None -> Alcotest.fail "store-backed log must offer fsck");
  let wal = Store.wal_file dir 0 in
  Disk.corrupt disk ~file:wal ~pos:(Disk.size disk ~file:wal / 2);
  let v = Store.verify_disk disk ~dir in
  Alcotest.(check bool) "structural verify flags the rot" false (Store.verify_clean v);
  (* a fresh open truncates the damage; what remains verifies again *)
  let s' = Store.open_ ~disk ~dir () in
  Alcotest.(check bool) "recovery notices the tear" true (Store.recovered s').Store.torn;
  let log' = Log_service.create ~store:s' ~rand_bytes:(drbg_rand "fsck-rot-reopen") () in
  match Log_service.fsck log' with
  | Some fr' -> Alcotest.(check bool) "repaired prefix is clean" true (Log_persist.fsck_clean fr')
  | None -> Alcotest.fail "store-backed log must offer fsck"

(* --- bounded transport replay cache ----------------------------------- *)

(* The cache only engages on the fault path; a scripted injector with no
   scheduled faults keeps every exchange clean and deterministic. *)
let lru_transport ~cap =
  let t = Transport.create ~label:"lru" ~cache_cap:cap (Channel.create ()) in
  Transport.set_injector t (Some (Fault.scripted []));
  let hits = ref 0 in
  let callit req =
    Transport.call t ~op:"echo" ~req ~decode:(fun s -> Some s) (fun r ->
        incr hits;
        "resp:" ^ r)
  in
  (t, hits, callit)

let lru_cap_and_evictions () =
  let t, _, callit = lru_transport ~cap:4 in
  for i = 1 to 8 do
    Alcotest.(check string) "response correct" (Printf.sprintf "resp:r%d" i)
      (callit (Printf.sprintf "r%d" i))
  done;
  Alcotest.(check int) "cache capped" 4 (Transport.cache_size t);
  Alcotest.(check int) "evictions counted" 4 (Transport.stats t).Transport.evictions;
  Alcotest.(check bool) "oldest entry evicted" false (Transport.cache_mem t ~op:"echo" ~req:"r1");
  Alcotest.(check bool) "newest entry kept" true (Transport.cache_mem t ~op:"echo" ~req:"r8")

let lru_duplicate_answered_at_cap () =
  let t, hits, callit = lru_transport ~cap:4 in
  for i = 1 to 6 do
    ignore (callit (Printf.sprintf "r%d" i))
  done;
  (* r5 is in the window: a duplicate must come from the cache, without
     re-running the handler (no double presig-consume, no double append) *)
  let h0 = !hits in
  Alcotest.(check string) "duplicate answered" "resp:r5" (callit "r5");
  Alcotest.(check int) "handler not re-executed" h0 !hits;
  Alcotest.(check int) "replay counted" 1 (Transport.stats t).Transport.replays;
  (* the duplicate touched r5 (cache now holds r3..r6, r5 most-recent):
     three fresh inserts evict r3, r4, r6 — and r5 outlives them all *)
  List.iter (fun r -> ignore (callit r)) [ "r7"; "r8"; "r9" ];
  Alcotest.(check bool) "touched entry survives eviction" true
    (Transport.cache_mem t ~op:"echo" ~req:"r5");
  Alcotest.(check bool) "least-recent entries evicted instead" false
    (Transport.cache_mem t ~op:"echo" ~req:"r6")

let lru_restart_clears () =
  let t, hits, callit = lru_transport ~cap:4 in
  ignore (callit "r1");
  Transport.restart t;
  Alcotest.(check int) "restart empties the cache" 0 (Transport.cache_size t);
  let h0 = !hits in
  ignore (callit "r1");
  Alcotest.(check int) "post-restart duplicate re-executes" (h0 + 1) !hits

(* --- property: atomic recovery at every crash point -------------------- *)

(* One seeded workload, killed at an arbitrary WAL byte offset: recovery
   must land exactly on the floor record boundary — the partial record (if
   any) vanishes, everything before it survives — and the recovered state
   passes every fsck invariant (tree-matches-records and cursor
   monotonicity, including across the prune that truncates the history). *)
let atomicity_world =
  lazy
    (with_clock @@ fun () ->
     let log, client, disk, rand = store_world ~entropy:"atomicity" () in
     ignore (drive ~auths:2 log client rand);
     let img = Disk.dump disk in
     let wal = Store.wal_file dir 0 in
     let entries, valid_len, torn = Wal.scan disk ~file:wal in
     assert (not torn);
     let boundaries =
       List.rev
         (List.fold_left
            (fun acc e -> (List.hd acc + Wal.frame_overhead + String.length e) :: acc)
            [ 0 ] entries)
     in
     (live_digest log, img, wal, boundaries, valid_len))

let recover_at img wal offset =
  let d = Disk.restore img in
  Disk.truncate d ~file:wal offset;
  let store = Store.open_ ~disk:d ~dir () in
  let log = Log_service.create ~store ~rand_bytes:(drbg_rand "atomicity-recover") () in
  let fr = Option.get (Log_service.fsck log) in
  (live_digest log, Log_persist.fsck_clean fr)

let boundary_digests : (int, string) Hashtbl.t = Hashtbl.create 64

let crash_point_atomicity =
  QCheck.Test.make ~name:"kill at any WAL offset: records atomic, invariants hold" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun raw ->
      let live, img, wal, boundaries, valid_len = Lazy.force atomicity_world in
      let offset = raw mod (valid_len + 1) in
      let floor = List.fold_left (fun acc b -> if b <= offset then b else acc) 0 boundaries in
      let digest, clean = recover_at img wal offset in
      let floor_digest =
        match Hashtbl.find_opt boundary_digests floor with
        | Some d -> d
        | None ->
            let d, floor_clean = recover_at img wal floor in
            if not floor_clean then QCheck.Test.fail_reportf "fsck dirty at boundary %d" floor;
            Hashtbl.replace boundary_digests floor d;
            d
      in
      if not clean then QCheck.Test.fail_reportf "fsck dirty at offset %d" offset;
      if digest <> floor_digest then
        QCheck.Test.fail_reportf "recovery at offset %d not atomic (floor boundary %d)" offset
          floor;
      (* killing after the last committed byte loses nothing *)
      if offset = valid_len && digest <> live then
        QCheck.Test.fail_reportf "full-WAL recovery diverges from live state";
      true)

let () =
  Alcotest.run "store"
    [
      ( "disk",
        [
          Alcotest.test_case "crash keeps the synced prefix" `Quick disk_crash_keeps_synced_prefix;
          Alcotest.test_case "seeded crash fates deterministic" `Quick
            disk_seeded_crash_deterministic;
        ] );
      ( "wal",
        [
          Alcotest.test_case "records round-trip" `Quick wal_roundtrip;
          Alcotest.test_case "torn tail detected and repaired" `Quick wal_torn_tail_repaired;
          Alcotest.test_case "every single-byte flip detected" `Quick wal_any_flip_detected;
          Alcotest.test_case "group commit: one append+fsync per flush" `Quick wal_group_commit;
        ] );
      ( "store",
        [
          Alcotest.test_case "unflushed records lost, acked survive" `Quick store_unflushed_lost;
          Alcotest.test_case "checkpoint rolls; rotted snapshot falls back" `Quick
            store_checkpoint_roll_and_fallback;
        ] );
      ( "service",
        [
          Alcotest.test_case "restart is a genuine kill-and-recover" `Quick
            service_restart_is_genuine_kill;
          Alcotest.test_case "backup blob survives a crash (§9)" `Quick backup_survives_crash;
          Alcotest.test_case "fsck flags injected bit rot" `Quick fsck_flags_bit_rot;
        ] );
      ( "transport-lru",
        [
          Alcotest.test_case "cap respected, evictions counted" `Quick lru_cap_and_evictions;
          Alcotest.test_case "duplicate answered from a full cache" `Quick
            lru_duplicate_answered_at_cap;
          Alcotest.test_case "restart clears the cache" `Quick lru_restart_clears;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest crash_point_atomicity ]);
    ]
