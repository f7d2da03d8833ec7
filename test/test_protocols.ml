(* Tests for the auth standards (RFC vectors), the wire/net substrate, the
   account-recovery backup, password embedding, and assorted operational
   paths not covered by the end-to-end suite. *)

module Wire = Larch_net.Wire
module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar
open Larch_core

let rand = Larch_hash.Drbg.of_seed "test-protocols"

(* --- RFC 6238 TOTP vectors (SHA-1, 8 digits truncated to our 6) --- *)

let totp_rfc6238_vectors () =
  let key = "12345678901234567890" in
  (* RFC 6238 Appendix B lists 8-digit codes; the 6-digit codes are the
     last six digits of those values. *)
  List.iter
    (fun (t, expected8) ->
      let code = Larch_auth.Totp.totp ~key ~time:t () in
      Alcotest.(check int) (Printf.sprintf "t=%.0f" t) (expected8 mod 1_000_000) code)
    [ (59., 94287082); (1111111109., 7081804); (1111111111., 14050471);
      (1234567890., 89005924); (2000000000., 69279037) ];
  Alcotest.(check string) "code rendering" "081804"
    (Larch_auth.Totp.code_to_string (Larch_auth.Totp.totp ~key ~time:1111111109. () ));
  (* hotp counter mapping *)
  Alcotest.(check int64) "counter of t=59" 1L (Larch_auth.Totp.counter_of_time 59.);
  Alcotest.(check bool) "verify window accepts adjacent step" true
    (Larch_auth.Totp.verify ~key ~time:89. (Larch_auth.Totp.totp ~key ~time:59. ()))

let fido2_payload_verify () =
  let sk, pk = Larch_ec.Ecdsa.keygen ~rand_bytes:rand in
  let challenge = rand 32 in
  let payload = Larch_auth.Fido2.make_payload ~rp_name:"rp.example" ~challenge ~counter:7 in
  let signature = Larch_ec.Ecdsa.sign_digest ~sk (Larch_auth.Fido2.signing_digest payload) in
  let a = { Larch_auth.Fido2.payload; signature } in
  Alcotest.(check bool) "verifies" true
    (Larch_auth.Fido2.verify ~pk ~rp_name:"rp.example" ~challenge a);
  Alcotest.(check bool) "wrong rp" false
    (Larch_auth.Fido2.verify ~pk ~rp_name:"evil.example" ~challenge a);
  Alcotest.(check bool) "wrong challenge" false
    (Larch_auth.Fido2.verify ~pk ~rp_name:"rp.example" ~challenge:(rand 32) a)

let password_verifier () =
  let v = Larch_auth.Password.create ~rand_bytes:rand "s3cret" in
  Alcotest.(check bool) "accepts" true (Larch_auth.Password.check v "s3cret");
  Alcotest.(check bool) "rejects" false (Larch_auth.Password.check v "s3cret!");
  (* pbkdf2 determinism + salt sensitivity *)
  let h1 = Larch_auth.Password.pbkdf2 ~password:"p" ~salt:"s" ~iterations:10 ~len:32 in
  let h2 = Larch_auth.Password.pbkdf2 ~password:"p" ~salt:"s" ~iterations:10 ~len:32 in
  let h3 = Larch_auth.Password.pbkdf2 ~password:"p" ~salt:"t" ~iterations:10 ~len:32 in
  Alcotest.(check string) "deterministic" h1 h2;
  Alcotest.(check bool) "salt matters" false (h1 = h3)

(* --- wire codec --- *)

let wire_roundtrip () =
  let s =
    Wire.encode (fun w ->
        Wire.u8 w 250;
        Wire.u32 w 123456;
        Wire.u64 w 0x1122334455667788L;
        Wire.bytes w "hello";
        Wire.list w Wire.bytes [ "a"; "bb"; "" ])
  in
  match
    Wire.decode s (fun r ->
        let a = Wire.read_u8 r in
        let b = Wire.read_u32 r in
        let c = Wire.read_u64 r in
        let d = Wire.read_bytes r in
        let e = Wire.read_list r Wire.read_bytes in
        (a, b, c, d, e))
  with
  | Ok (a, b, c, d, e) ->
      Alcotest.(check int) "u8" 250 a;
      Alcotest.(check int) "u32" 123456 b;
      Alcotest.(check int64) "u64" 0x1122334455667788L c;
      Alcotest.(check string) "bytes" "hello" d;
      Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] e
  | Error e -> Alcotest.fail e

let wire_malformed () =
  (* truncation *)
  let s = Wire.encode (fun w -> Wire.bytes w "hello") in
  let short = String.sub s 0 (String.length s - 1) in
  (match Wire.decode short (fun r -> Wire.read_bytes r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated accepted");
  (* trailing bytes *)
  (match Wire.decode (s ^ "x") (fun r -> Wire.read_bytes r) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing accepted");
  (* absurd list length must not allocate/crash *)
  let evil = "\xff\xff\xff\xff" in
  match Wire.decode evil (fun r -> Wire.read_list r Wire.read_bytes) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd list accepted"

let wire_props =
  [
    QCheck.Test.make ~name:"bytes roundtrip" ~count:200 QCheck.(string_of Gen.char) (fun s ->
        Wire.decode (Wire.encode (fun w -> Wire.bytes w s)) Wire.read_bytes = Ok s);
    QCheck.Test.make ~name:"list roundtrip" ~count:100
      QCheck.(list (string_of Gen.char))
      (fun l ->
        Wire.decode
          (Wire.encode (fun w -> Wire.list w Wire.bytes l))
          (fun r -> Wire.read_list r Wire.read_bytes)
        = Ok l);
  ]

(* --- network model --- *)

let netsim_math () =
  let net = Larch_net.Netsim.make ~rtt_ms:20. ~bandwidth_mbps:100. in
  (* 1 MiB at 100 Mbps = 8*2^20/1e8 s, plus 1 RTT *)
  let t = Larch_net.Netsim.transfer_time net ~bytes:(1024 * 1024) ~rounds:1 in
  let expected = 0.020 +. (8. *. 1048576. /. 1e8) in
  Alcotest.(check (float 1e-9)) "transfer time" expected t;
  Alcotest.(check (float 1e-9)) "zero model" 0.
    (Larch_net.Netsim.transfer_time Larch_net.Netsim.zero ~bytes:1000 ~rounds:5)

let channel_accounting () =
  let ch = Larch_net.Channel.create () in
  let open Larch_net.Channel in
  ignore (send ch Client_to_log "12345");
  ignore (send ch Client_to_log "12345");
  (* same direction: pipelined *)
  ignore (send ch Log_to_client "123");
  ignore (send ch Client_to_log "1");
  let s = snapshot ch in
  Alcotest.(check int) "up bytes" 11 s.up;
  Alcotest.(check int) "down bytes" 3 s.down;
  Alcotest.(check int) "messages" 4 s.msgs;
  (* direction flips: C(1) L(2) C(3) -> ceil(3/2) = 2 round trips *)
  Alcotest.(check int) "round trips" 2 s.rts;
  reset ch;
  Alcotest.(check int) "reset" 0 (total_bytes ch)

(* --- account recovery backup (§9) --- *)

let backup_roundtrip () =
  Larch_util.Clock.set 1_700_000_000.;
  let log = Log_service.create ~rand_bytes:rand () in
  let alice = Client.create ~client_id:"alice" ~account_password:"strong pw" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:4 alice;
  let rp = Relying_party.create ~name:"site.com" ~rand_bytes:rand () in
  let pk = Client.register_fido2 alice ~rp_name:"site.com" in
  Relying_party.fido2_register rp ~username:"alice" ~pk;
  let pw = Client.register_password alice ~rp_name:"site.com" in
  let key = Relying_party.totp_register rp ~username:"alice" in
  Client.register_totp alice ~rp_name:"site.com" ~totp_key:key;
  let blob_size = Backup.store alice in
  Alcotest.(check bool) "backup non-trivial" true (blob_size > 500);
  (* the device burns down; recover on a new one *)
  match Backup.recover ~log ~client_id:"alice" ~account_password:"strong pw" ~rand_bytes:rand with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      (* recovered state authenticates everywhere *)
      let pw' = Client.authenticate_password restored ~rp_name:"site.com" in
      Alcotest.(check string) "password preserved" pw pw';
      let chal = Relying_party.fido2_challenge rp ~username:"alice" in
      let a = Client.authenticate_fido2 restored ~rp_name:"site.com" ~challenge:chal in
      Alcotest.(check bool) "fido2 works after recovery" true
        (Relying_party.fido2_login rp ~username:"alice" a);
      let code = Client.authenticate_totp restored ~rp_name:"site.com" ~time:(Larch_util.Clock.now ()) in
      Alcotest.(check bool) "totp works after recovery" true
        (Relying_party.totp_login rp ~username:"alice" ~time:(Larch_util.Clock.now ()) code)

let backup_wrong_password () =
  let log = Log_service.create ~rand_bytes:rand () in
  let alice = Client.create ~client_id:"bob" ~account_password:"right" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:1 alice;
  ignore (Backup.store alice);
  (match Backup.recover ~log ~client_id:"bob" ~account_password:"wrong" ~rand_bytes:rand with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong password accepted");
  (* corrupted blob rejected *)
  let blob = Option.get (Log_service.fetch_backup log ~client_id:"bob") in
  let corrupted =
    String.mapi (fun i c -> if i = String.length blob - 1 then Char.chr (Char.code c lxor 1) else c) blob
  in
  Log_service.store_backup log ~client_id:"bob" corrupted;
  match Backup.recover ~log ~client_id:"bob" ~account_password:"right" ~rand_bytes:rand with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted blob accepted"

(* --- password embedding --- *)

let embed_props =
  [
    QCheck.Test.make ~name:"embed/extract roundtrip" ~count:100
      (QCheck.string_of_size (QCheck.Gen.int_range 0 28))
      (fun pw ->
        Password_protocol.extract_password (Password_protocol.embed_password pw) = Some pw);
    QCheck.Test.make ~name:"random points do not extract" ~count:30 QCheck.unit (fun () ->
        let p = Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand) in
        Password_protocol.extract_password p = None);
  ]

let embed_limits () =
  Alcotest.check_raises "too long rejected"
    (Invalid_argument "Password_protocol.embed_password: too long") (fun () ->
      ignore (Password_protocol.embed_password (String.make 29 'x')))

(* A password login against a log that holds no registered ids must be
   the typed rejection, not an exception out of the proof verifier. *)
let pw_auth_without_ids () =
  Larch_util.Clock.set 1_000.;
  let log = Log_service.create ~rand_bytes:rand () in
  let c = Client.create ~client_id:"noids" ~account_password:"pw" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:1 c;
  Alcotest.(check (list string)) "no ids" [] (Log_service.pw_registered_ids log ~client_id:"noids");
  let s = Client.pw_side c in
  let _, req =
    Password_protocol.client_auth ~idx:0 ~x:s.Client.x ~ids:[ "never registered" ] ~rand_bytes:rand
  in
  match Log_service.pw_auth log ~client_id:"noids" ~ip:"192.0.2.9" ~now:1_000. req with
  | exception Types.Protocol_error msg ->
      Alcotest.(check string) "typed rejection" "one-out-of-many proof rejected" msg
  | _ -> Alcotest.fail "accepted a login with no registered ids"

(* --- operational odds and ends --- *)

let prune_and_unregister () =
  Larch_util.Clock.set 1_000.;
  let log = Log_service.create ~rand_bytes:rand () in
  let c = Client.create ~client_id:"x" ~account_password:"pw" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:1 c;
  ignore (Client.register_password c ~rp_name:"a.com");
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  Larch_util.Clock.advance 1000.;
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  Alcotest.(check int) "two records" 2 (List.length (Client.audit c));
  let dropped = Log_service.prune_records log ~client_id:"x" ~token:"pw" ~older_than:1500. in
  Alcotest.(check int) "one pruned" 1 dropped;
  Alcotest.(check int) "one remains" 1 (List.length (Client.audit c));
  (* totp unregister shrinks the 2PC input set *)
  Client.register_totp c ~rp_name:"t1.com" ~totp_key:(rand 20);
  Client.register_totp c ~rp_name:"t2.com" ~totp_key:(rand 20);
  Alcotest.(check int) "two regs" 2 (Log_service.totp_registration_count log ~client_id:"x");
  let s = Client.totp_side c in
  let tid = (Hashtbl.find s.Client.totp_creds "t1.com").Client.tid in
  Alcotest.(check bool) "unregistered" true
    (Log_service.totp_unregister log ~client_id:"x" ~token:"pw" ~id:tid);
  Alcotest.(check int) "one reg" 1 (Log_service.totp_registration_count log ~client_id:"x")

let gk15_proof_size_logarithmic () =
  let key = Larch_sigma.Pedersen.make ~h:(Larch_ec.Hash_to_curve.hash "size-h") in
  let size_at n =
    let opening = Scalar.random_nonzero ~rand_bytes:rand in
    let commitments =
      Array.init n (fun i ->
          if i = 0 then Point.mul opening key.Larch_sigma.Pedersen.h
          else Point.mul_base (Scalar.random_nonzero ~rand_bytes:rand))
    in
    let p = Larch_sigma.Gk15.prove ~key ~commitments ~index:0 ~opening ~tag:"t" ~rand_bytes:rand in
    Larch_sigma.Gk15.size_bytes p
  in
  let s16 = size_at 16 and s64 = size_at 64 and s256 = size_at 256 in
  Alcotest.(check bool) "grows" true (s16 < s64 && s64 < s256);
  (* logarithmic: equal increments per 4x set growth *)
  Alcotest.(check int) "log-shaped growth" (s64 - s16) (s256 - s64)

let audit_chain_detects_rollback () =
  Larch_util.Clock.set 5_000.;
  let log = Log_service.create ~rand_bytes:rand () in
  let c = Client.create ~client_id:"chain" ~account_password:"pw" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:1 c;
  ignore (Client.register_password c ~rp_name:"a.com");
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  (match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "one entry" 1 (List.length entries)
  | Error e -> Alcotest.fail e);
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  (match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "two entries" 2 (List.length entries)
  | Error e -> Alcotest.fail e);
  let verified = c.Client.last_sth in
  let named what = function
    | Error msg ->
        Alcotest.(check bool) (what ^ " named") true
          (String.length msg > 0 && String.sub msg 0 3 = "log");
        Alcotest.(check bool) (what ^ ": view did not advance") true
          (c.Client.last_sth == verified && List.length c.Client.audited = 2)
    | Ok _ -> Alcotest.failf "%s not detected" what
  in
  (* a malicious log silently drops the newest record (rollback) and
     re-derives a self-consistent tree for the truncated history, so only
     the client's memory of the old head can catch it *)
  let cs = Log_service.get_client log "chain" in
  (match cs.Log_service.records with
  | _dropped :: rest -> cs.Log_service.records <- rest
  | [] -> Alcotest.fail "no records");
  Log_state.rebuild_derived cs;
  named "rollback" (Client.audit_verified c);
  (* records tampered without a rebuild: the signed head no longer
     matches the records served *)
  cs.Log_service.records <-
    List.map (fun (r : Record.t) -> { r with Record.ip = "203.0.113.66" }) cs.Log_service.records;
  named "tamper" (Client.audit_verified c)

let pruned_chain_stays_consistent () =
  Larch_util.Clock.set 9_000.;
  let log = Log_service.create ~rand_bytes:rand () in
  let c = Client.create ~client_id:"prune2" ~account_password:"pw" ~log ~rand_bytes:rand () in
  Client.enroll ~presignature_count:1 c;
  ignore (Client.register_password c ~rp_name:"a.com");
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  Larch_util.Clock.advance 100.;
  ignore (Client.authenticate_password c ~rp_name:"a.com");
  (match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "pre-prune audit sees both" 2 (List.length entries)
  | Error e -> Alcotest.fail e);
  (* user-authorized pruning restarts the tree; the client resets its
     whole verified view (tree head, record cache) *)
  ignore (Log_service.prune_records log ~client_id:"prune2" ~token:"pw" ~older_than:9_050.);
  c.Client.last_sth <- None;
  c.Client.audited <- [];
  match Client.audit_verified c with
  | Ok entries -> Alcotest.(check int) "pruned history verifies" 1 (List.length entries)
  | Error e -> Alcotest.fail e

let record_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (match Record.decode "garbage-bytes" with Error _ -> true | Ok _ -> false);
  Alcotest.(check (option unit)) "decode_opt none" None
    (Option.map (fun _ -> ()) (Record.decode_opt "\x00\x01"))

let fido2_auth_request_codec () =
  (* roundtrip the largest wire message in the system *)
  let circuit = Lazy.force Larch_circuit.Larch_statements.fido2_circuit in
  let witness = Array.make circuit.Larch_circuit.Circuit.n_inputs false in
  let proof =
    Larch_zkboo.Zkboo.prove ~reps:10 ~circuit ~witness ~statement_tag:"codec" ~rand_bytes:rand ()
  in
  let req =
    {
      Fido2_protocol.dgst = rand 32;
      ct_nonce = rand 12;
      ct = rand 32;
      record_sig = rand 64;
      proof;
      presig_index = 42;
      hm_msg =
        { Larch_mpc.Spdz.d = Scalar.random ~rand_bytes:rand; e = Scalar.random ~rand_bytes:rand };
    }
  in
  let bytes = Fido2_protocol.encode_auth_request req in
  match Fido2_protocol.decode_auth_request bytes with
  | None -> Alcotest.fail "decode failed"
  | Some req' ->
      Alcotest.(check string) "reserializes identically" (Larch_util.Hex.encode bytes)
        (Larch_util.Hex.encode (Fido2_protocol.encode_auth_request req'));
      Alcotest.(check bool) "truncation rejected" true
        (Fido2_protocol.decode_auth_request (String.sub bytes 0 100) = None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "protocols"
    [
      ( "auth-standards",
        [
          Alcotest.test_case "totp rfc6238 vectors" `Quick totp_rfc6238_vectors;
          Alcotest.test_case "fido2 payloads" `Quick fido2_payload_verify;
          Alcotest.test_case "password verifier" `Quick password_verifier;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick wire_roundtrip;
          Alcotest.test_case "malformed" `Quick wire_malformed;
        ] );
      qsuite "wire-props" wire_props;
      ( "net",
        [
          Alcotest.test_case "netsim math" `Quick netsim_math;
          Alcotest.test_case "channel accounting" `Quick channel_accounting;
        ] );
      ( "backup",
        [
          Alcotest.test_case "recovery roundtrip" `Slow backup_roundtrip;
          Alcotest.test_case "wrong password / corruption" `Quick backup_wrong_password;
        ] );
      qsuite "embedding-props" embed_props;
      ( "misc",
        [
          Alcotest.test_case "embed limits" `Quick embed_limits;
          Alcotest.test_case "prune + totp unregister" `Quick prune_and_unregister;
          Alcotest.test_case "password login with no ids" `Quick pw_auth_without_ids;
          Alcotest.test_case "audit chain rollback" `Quick audit_chain_detects_rollback;
          Alcotest.test_case "audit chain after prune" `Quick pruned_chain_stays_consistent;
          Alcotest.test_case "gk15 size logarithmic" `Quick gk15_proof_size_logarithmic;
          Alcotest.test_case "record garbage" `Quick record_decode_garbage;
          Alcotest.test_case "fido2 request codec" `Quick fido2_auth_request_codec;
        ] );
    ]
