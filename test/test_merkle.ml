(* The transparency layer: RFC 6962-style Merkle trees, signed tree
   heads, per-authentication attestations, O(log n) verified audits, and
   split-view detection across multilog replicas.

   Coverage:

   - tree properties: inclusion verifies for every leaf at every tree
     size up to 512; consistency proofs compose across random size
     pairs; any single flipped byte in a leaf or proof is rejected;
   - signed tree heads: client binding and signature tamper rejection;
   - the client under a lying log: rollback, rewrite, fork, and a
     two-headed (records say one history, the signed head another)
     equivocating fixture — none of which advances the verified view;
   - incremental audits: the delta fast path only downloads new records
     and the verified view advances;
   - per-auth attestations: a log that acks without storing (or stores
     something else) is caught at authentication time;
   - multilog: a forked replica is localized by pairwise consistency;
   - fsck: a live tree that drifts from the records is flagged. *)

open Larch_core
module Merkle = Larch_merkle.Merkle
module Tree = Larch_merkle.Merkle.Tree
module Clock = Larch_util.Clock

let rand = Larch_hash.Drbg.of_seed "test-merkle"
let leaf i = Printf.sprintf "leaf-%06d" i

(* --- tree mechanics ---------------------------------------------------- *)

let empty_tree_root () =
  let t = Tree.create () in
  Alcotest.(check int) "empty size" 0 (Tree.size t);
  Alcotest.(check bool) "empty root is H(\"\")" true (Tree.root t = Merkle.empty_root)

let append_matches_rebuild () =
  (* incremental appends and a batch build agree at every size *)
  let t = Tree.create () in
  for n = 1 to 200 do
    Tree.append t (leaf (n - 1));
    let fresh = Tree.of_leaves (List.init n leaf) in
    if Tree.root t <> Tree.root fresh then
      Alcotest.failf "append/rebuild roots diverge at size %d" n
  done

let root_at_is_prefix_root () =
  let t = Tree.of_leaves (List.init 100 leaf) in
  for m = 0 to 100 do
    let prefix = Tree.of_leaves (List.init m leaf) in
    if Tree.root_at t m <> Tree.root prefix then Alcotest.failf "root_at %d diverges" m
  done

(* the tentpole property: every leaf of every tree size up to 512 has a
   verifying inclusion proof (exhaustive, not sampled) *)
let inclusion_all_sizes () =
  let t = Tree.create () in
  for n = 1 to 512 do
    Tree.append t (leaf (n - 1));
    let root = Tree.root t in
    for i = 0 to n - 1 do
      let proof = Tree.inclusion t ~index:i in
      if not (Merkle.verify_inclusion ~root ~size:n ~index:i ~leaf:(leaf i) ~proof) then
        Alcotest.failf "inclusion fails at size %d index %d" n i
    done
  done

let consistency_composes =
  QCheck.Test.make ~name:"consistency composes across random size pairs" ~count:200
    QCheck.(triple (1 -- 512) (1 -- 512) (1 -- 512))
    (fun (x, y, z) ->
      let sizes = List.sort compare [ x; y; z ] in
      let a = List.nth sizes 0 and b = List.nth sizes 1 and c = List.nth sizes 2 in
      let t = Tree.of_leaves (List.init c leaf) in
      let ra = Tree.root_at t a and rb = Tree.root_at t b and rc = Tree.root_at t c in
      Merkle.verify_consistency ~old_root:ra ~old_size:a ~new_root:rb ~new_size:b
        ~proof:(Tree.consistency t ~old_size:a ~new_size:b)
      && Merkle.verify_consistency ~old_root:rb ~old_size:b ~new_root:rc ~new_size:c
           ~proof:(Tree.consistency t ~old_size:b ~new_size:c)
      && Merkle.verify_consistency ~old_root:ra ~old_size:a ~new_root:rc ~new_size:c
           ~proof:(Tree.consistency t ~old_size:a ~new_size:c))

let flip (s : string) ~(pos : int) ~(bit : int) : string =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let flipped_inclusion_rejected =
  QCheck.Test.make ~name:"flipped leaf/proof byte rejected" ~count:300
    QCheck.(triple (1 -- 256) small_nat small_nat)
    (fun (n, seed1, seed2) ->
      let t = Tree.of_leaves (List.init n leaf) in
      let root = Tree.root t in
      let i = seed1 mod n in
      let proof = Tree.inclusion t ~index:i in
      let bad_leaf = flip (leaf i) ~pos:(seed2 mod String.length (leaf i)) ~bit:(seed2 mod 8) in
      let leaf_rejected =
        not (Merkle.verify_inclusion ~root ~size:n ~index:i ~leaf:bad_leaf ~proof)
      in
      let proof_rejected =
        match proof with
        | [] -> true (* size-1 tree: no proof bytes to corrupt *)
        | _ ->
            let j = seed2 mod List.length proof in
            let bad_proof =
              List.mapi
                (fun k h -> if k = j then flip h ~pos:(seed1 mod 32) ~bit:(seed1 mod 8) else h)
                proof
            in
            not (Merkle.verify_inclusion ~root ~size:n ~index:i ~leaf:(leaf i) ~proof:bad_proof)
      in
      leaf_rejected && proof_rejected)

let flipped_consistency_rejected =
  QCheck.Test.make ~name:"flipped consistency proof byte rejected" ~count:200
    QCheck.(triple (1 -- 255) (1 -- 255) small_nat)
    (fun (a, d, seed) ->
      let old_size = min a (a + d) and new_size = a + d in
      let t = Tree.of_leaves (List.init new_size leaf) in
      let proof = Tree.consistency t ~old_size ~new_size in
      match proof with
      | [] -> true (* pow2-aligned or trivial: nothing to corrupt *)
      | _ ->
          let j = seed mod List.length proof in
          let bad =
            List.mapi (fun k h -> if k = j then flip h ~pos:(seed mod 32) ~bit:(seed mod 8) else h)
              proof
          in
          not
            (Merkle.verify_consistency ~old_root:(Tree.root_at t old_size) ~old_size
               ~new_root:(Tree.root t) ~new_size ~proof:bad))

(* --- signed tree heads ------------------------------------------------- *)

let sth_binding_and_tampering () =
  let sk, pk = Larch_ec.Ecdsa.keygen ~rand_bytes:rand in
  let sth = Merkle.Sth.sign ~sk ~client_id:"alice" ~size:7 ~root:(rand 32) ~time:100. in
  Alcotest.(check bool) "verifies for its client" true
    (Merkle.Sth.verify ~pk ~client_id:"alice" sth);
  Alcotest.(check bool) "bound to the client id" false
    (Merkle.Sth.verify ~pk ~client_id:"bob" sth);
  Alcotest.(check bool) "size tamper rejected" false
    (Merkle.Sth.verify ~pk ~client_id:"alice" { sth with Merkle.Sth.size = 8 });
  Alcotest.(check bool) "root tamper rejected" false
    (Merkle.Sth.verify ~pk ~client_id:"alice" { sth with Merkle.Sth.root = rand 32 });
  let bad_sig = flip sth.Merkle.Sth.signature ~pos:11 ~bit:3 in
  Alcotest.(check bool) "signature tamper rejected" false
    (Merkle.Sth.verify ~pk ~client_id:"alice" { sth with Merkle.Sth.signature = bad_sig })

(* --- the client under a lying log -------------------------------------- *)

let mk_world (tag : string) =
  Clock.set 40_000.;
  let r = Larch_hash.Drbg.of_seed ("merkle-" ^ tag) in
  let log = Log_service.create ~rand_bytes:r () in
  let c = Client.create ~client_id:"alice" ~account_password:"pw" ~log ~rand_bytes:r () in
  Client.enroll ~presignature_count:1 c;
  ignore (Client.register_password c ~rp_name:"a.com");
  (log, c)

let auth (c : Client.t) = ignore (Client.authenticate_password c ~rp_name:"a.com")

(* A lying log's audit fails with an error naming the log, and the
   client's verified view (signed head and audited records) stays put. *)
let caught (what : string) (c : Client.t) =
  let sth = c.Client.last_sth and audited = c.Client.audited in
  match Client.audit_verified c with
  | Error msg ->
      Alcotest.(check bool) (what ^ " named") true (String.sub msg 0 3 = "log");
      Alcotest.(check bool) "view did not advance" true
        (c.Client.last_sth == sth && c.Client.audited == audited)
  | Ok _ -> Alcotest.failf "%s not detected" what

let incremental_audit_fast_path () =
  let _log, c = mk_world "incremental" in
  auth c;
  (match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "first audit: 1 entry" 1 (List.length entries)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "view advanced to size 1" 1
    (match c.Client.last_sth with Some s -> s.Merkle.Sth.size | None -> -1);
  Clock.advance 10.;
  auth c;
  Clock.advance 10.;
  auth c;
  (match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "delta audit: 3 entries total" 3 (List.length entries)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "view advanced to size 3" 3
    (match c.Client.last_sth with Some s -> s.Merkle.Sth.size | None -> -1);
  (* nothing new: the audit is a no-op delta and still verifies *)
  match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "empty delta verifies" 3 (List.length entries)
  | Error e -> Alcotest.fail e

let rollback_detected () =
  let log, c = mk_world "rollback" in
  auth c;
  Clock.advance 10.;
  auth c;
  (match Client.audit_verified c with Ok _ -> () | Error e -> Alcotest.fail e);
  (* the log silently drops the newest record and re-derives the tree
     for the shortened history *)
  let cs = Log_service.get_client log "alice" in
  (match cs.Log_service.records with
  | _ :: rest -> cs.Log_service.records <- rest
  | [] -> Alcotest.fail "no records");
  Log_state.rebuild_derived cs;
  caught "rollback" c

let rewrite_detected () =
  let log, c = mk_world "rewrite" in
  auth c;
  Clock.advance 10.;
  auth c;
  (match Client.audit_verified c with Ok _ -> () | Error e -> Alcotest.fail e);
  (* the log rewrites an already-audited record in place, fully
     re-deriving the tree — only the client's memory of the old head can
     catch it *)
  let cs = Log_service.get_client log "alice" in
  cs.Log_service.records <-
    List.mapi
      (fun i (r : Record.t) -> if i = 1 then { r with Record.ip = "6.6.6.6" } else r)
      cs.Log_service.records;
  Log_state.rebuild_derived cs;
  caught "rewrite" c

let fork_after_audit_detected () =
  let log, c = mk_world "fork" in
  auth c;
  (match Client.audit_verified c with Ok _ -> () | Error e -> Alcotest.fail e);
  (* fork: the log rewrites the audited record AND appends a new one, so
     sizes grow normally but the old head is not a prefix *)
  let cs = Log_service.get_client log "alice" in
  Clock.advance 10.;
  auth c;
  cs.Log_service.records <-
    List.map (fun (r : Record.t) -> { r with Record.ip = "6.6.6.6" }) cs.Log_service.records;
  Log_state.rebuild_derived cs;
  caught "fork" c

let equivocating_two_headed_log () =
  let log, c = mk_world "two-headed" in
  auth c;
  Clock.advance 10.;
  auth c;
  (* two-headed fixture: the log serves the stored records honestly, but
     its signed tree head answers for a different history — the log is
     telling record-downloaders one story and proof-checkers another *)
  let cs = Log_service.get_client log "alice" in
  cs.Log_service.tree <- Tree.of_leaves [ "forged-history-record" ];
  (match Client.audit_verified c with
  | Error msg ->
      Alcotest.(check bool) "equivocation named" true
        (String.length msg > 0
        && String.sub msg 0 3 = "log"
        &&
        let has_sub needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        has_sub "equivocation" msg)
  | Ok _ -> Alcotest.fail "two-headed log not detected");
  (* the verified view must not have advanced on the failed audit *)
  Alcotest.(check bool) "view did not advance" true (c.Client.last_sth = None)

let anomalies_direct () =
  let _log, c = mk_world "anomalies" in
  auth c;
  Clock.advance 10.;
  auth c;
  (* the user remembers one login; the second is an intruder's *)
  let anomalous = Client.detect_anomalies c ~expected:[ (Types.Password, "a.com") ] in
  Alcotest.(check int) "one unexpected entry" 1 (List.length anomalous);
  let all = Client.detect_anomalies c ~expected:[] in
  Alcotest.(check int) "nothing expected: both flagged" 2 (List.length all);
  let none =
    Client.detect_anomalies c ~expected:[ (Types.Password, "a.com"); (Types.Password, "a.com") ]
  in
  Alcotest.(check int) "all accounted for" 0 (List.length none)

(* --- per-auth attestations --------------------------------------------- *)

let attestation_on_every_auth () =
  let _log, c = mk_world "attest" in
  (* authentications verify their attestations inline; three in a row
     exercise growing proof depths *)
  auth c;
  Clock.advance 10.;
  auth c;
  Clock.advance 10.;
  auth c

let ack_without_storing_detected () =
  let log, c = mk_world "no-store" in
  auth c;
  Clock.advance 10.;
  auth c;
  Clock.advance 10.;
  auth c;
  (match Client.audit_verified c with Ok _ -> () | Error e -> Alcotest.fail e);
  (* the log un-stores two audited records and re-derives a perfectly
     self-consistent tree for the shortened history; the next
     auth's signed head covers fewer leaves than the client already
     audited, so the attestation is rejected at authentication time —
     before any audit runs *)
  let cs = Log_service.get_client log "alice" in
  (match cs.Log_service.records with
  | _ :: _ :: rest -> cs.Log_service.records <- rest
  | _ -> Alcotest.fail "expected 3 records");
  Log_state.rebuild_derived cs;
  Clock.advance 10.;
  match Client.authenticate_password c ~rp_name:"a.com" with
  | _ -> Alcotest.fail "attestation should have failed: tree regressed below audited size"
  | exception Client.Log_misbehaved msg ->
      Alcotest.(check bool) "attestation rejection named" true
        (String.length msg > 0 && String.sub msg 0 4 = "auth")

(* --- multilog split-view detection ------------------------------------- *)

let multilog_split_view () =
  Clock.set 50_000.;
  let r = Larch_hash.Drbg.of_seed "merkle-split" in
  let ml = Multilog.create ~n:3 ~threshold:3 ~rand_bytes:r () in
  let mc = Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" in
  ignore (Multilog.register ml mc ~rp_name:"a.com");
  ignore (Multilog.authenticate ml mc ~rp_name:"a.com" ~now:(Clock.now ()));
  Clock.advance 10.;
  ignore (Multilog.authenticate ml mc ~rp_name:"a.com" ~now:(Clock.now ()));
  (* replicas agree: no bad pairs *)
  let sv = Multilog.check_split_view ml mc in
  Alcotest.(check int) "3 heads" 3 (List.length sv.Multilog.heads);
  Alcotest.(check int) "3 pairs checked" 3 sv.Multilog.checked_pairs;
  Alcotest.(check (list (pair int int))) "no bad pairs" [] sv.Multilog.bad_pairs;
  Alcotest.(check (list int)) "no suspects" [] sv.Multilog.suspects;
  (* log 2 forks: rewrites its copy of the history *)
  let cs = Log_service.get_client ml.Multilog.logs.(2) "alice" in
  cs.Log_service.records <-
    List.map (fun (rec_ : Record.t) -> { rec_ with Record.ip = "6.6.6.6" }) cs.Log_service.records;
  Log_state.rebuild_derived cs;
  let sv' = Multilog.check_split_view ml mc in
  Alcotest.(check int) "2 bad pairs" 2 (List.length sv'.Multilog.bad_pairs);
  Alcotest.(check (list int)) "log 2 localized" [ 2 ] sv'.Multilog.suspects

let multilog_behind_replica_is_consistent () =
  Clock.set 51_000.;
  let r = Larch_hash.Drbg.of_seed "merkle-behind" in
  let ml = Multilog.create ~n:3 ~threshold:2 ~rand_bytes:r () in
  let mc = Multilog.enroll ml ~client_id:"alice" ~account_password:"pw" in
  ignore (Multilog.register ml mc ~rp_name:"a.com");
  (* threshold 2 of 3: the gather loop satisfies itself from logs 0,1 and
     log 2 never sees the record — behind, but honestly so *)
  ignore (Multilog.authenticate ml mc ~rp_name:"a.com" ~now:(Clock.now ()));
  let sv = Multilog.check_split_view ml mc in
  Alcotest.(check (list (pair int int))) "a behind replica is not a fork" [] sv.Multilog.bad_pairs;
  Alcotest.(check (list int)) "no suspects" [] sv.Multilog.suspects

(* --- fsck: the tree is checked against the records --------------------- *)

let fsck_flags_drifted_tree () =
  Clock.set 52_000.;
  let r = Larch_hash.Drbg.of_seed "merkle-fsck" in
  let disk = Larch_store.Disk.create ~seed:"merkle-fsck" ~profile:Larch_store.Disk.clean_profile () in
  let store = Larch_store.Store.open_ ~disk ~dir:"log" () in
  let log = Log_service.create ~store ~rand_bytes:r () in
  let c = Client.create ~client_id:"alice" ~account_password:"pw" ~log ~rand_bytes:r () in
  Client.enroll ~presignature_count:1 c;
  ignore (Client.register_password c ~rp_name:"a.com");
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  (match Log_service.fsck log with
  | Some fr -> Alcotest.(check (list string)) "clean before drift" [] fr.Log_persist.issues
  | None -> Alcotest.fail "store-backed log must offer fsck");
  (* the live tree drifts from the records (e.g. a buggy in-place edit
     that forgot rebuild_derived): replay-match can't see derived state,
     the semantic tree check must *)
  let cs = Log_service.get_client log "alice" in
  Tree.append cs.Log_service.tree "phantom-leaf";
  match Log_service.fsck log with
  | Some fr ->
      Alcotest.(check bool) "drifted tree flagged" true
        (List.exists
           (fun i ->
             let has_sub needle hay =
               let nl = String.length needle and hl = String.length hay in
               let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
               go 0
             in
             has_sub "merkle" i)
           fr.Log_persist.issues)
  | None -> Alcotest.fail "store-backed log must offer fsck"

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Larch_util.Clock.use_real_time ();
  Alcotest.run "merkle"
    [
      ( "tree",
        [
          Alcotest.test_case "empty tree" `Quick empty_tree_root;
          Alcotest.test_case "append matches rebuild" `Quick append_matches_rebuild;
          Alcotest.test_case "root_at is prefix root" `Quick root_at_is_prefix_root;
          Alcotest.test_case "inclusion: all leaves, all sizes <= 512" `Slow inclusion_all_sizes;
        ]
        @ qtests [ consistency_composes; flipped_inclusion_rejected; flipped_consistency_rejected ]
      );
      ("sth", [ Alcotest.test_case "binding and tampering" `Quick sth_binding_and_tampering ]);
      ( "lying-log",
        [
          Alcotest.test_case "incremental audit fast path" `Quick incremental_audit_fast_path;
          Alcotest.test_case "rollback detected" `Quick rollback_detected;
          Alcotest.test_case "rewrite detected" `Quick rewrite_detected;
          Alcotest.test_case "fork after audit detected" `Quick fork_after_audit_detected;
          Alcotest.test_case "equivocating two-headed log" `Quick equivocating_two_headed_log;
          Alcotest.test_case "anomaly detection" `Quick anomalies_direct;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "verified on every auth" `Quick attestation_on_every_auth;
          Alcotest.test_case "ack without storing detected" `Quick ack_without_storing_detected;
        ] );
      ( "multilog",
        [
          Alcotest.test_case "forked replica localized" `Quick multilog_split_view;
          Alcotest.test_case "behind replica consistent" `Quick multilog_behind_replica_is_consistent;
        ] );
      ("fsck", [ Alcotest.test_case "drifted tree flagged" `Quick fsck_flags_drifted_tree ]);
    ]
