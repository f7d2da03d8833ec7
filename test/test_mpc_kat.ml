(* Fixed-seed known-answer tests for the TOTP two-party computation.

   Every byte the garbler ships, every base-OT seed, the IKNP u-matrix and
   ciphertexts, and the final (code, ct) of a TOTP authentication are
   deterministic functions of the circuit and the two parties' DRBG
   streams.  These SHA-256 pins were recorded from the straightforward
   string-per-label garbler and two-multiplication base OTs; any rewrite
   of the hot path (flat label arena, fewer hash calls, reordered
   computation, base OTs overlapped with garbling) must reproduce them
   bit for bit.  The "next 32 bytes" pins fix how much randomness each
   party drew and in what order: a rewrite that draws the same values in
   a different interleaving still fails them.

   The client-path cases run the whole stack (client, log service,
   relying party) at 1 and 2 client domains; the pins are the same, since
   the domain count may change only where work runs, never what it
   computes or draws.

   If a pin here ever changes on purpose (a deliberate protocol or format
   change), re-record it and say so loudly in the commit message. *)

module Statements = Larch_circuit.Larch_statements
module Garble = Larch_mpc.Garble
module Ot_ext = Larch_mpc.Ot_ext
module Drbg = Larch_hash.Drbg
module Channel = Larch_net.Channel
module Hex = Larch_util.Hex
module Core = Larch_core

let sha_hex s = Hex.encode (Larch_hash.Sha256.digest s)

(* The public TOTP inputs and the client's/log's secrets, from one DRBG. *)
let totp_world () =
  let rand = Drbg.of_seed "mpc-kat-world" in
  let k = rand 32 and r = rand 16 in
  let pub =
    Statements.{ cm = Larch_hash.Sha256.digest (k ^ r); enc_nonce = rand 12; time_counter = 57_000_000L }
  in
  let regs = List.init 2 (fun _ -> (rand 16, rand 20)) in
  let kclient = rand 20 in
  (k, r, pub, regs, kclient)

let garble_kat () =
  let _, _, pub, _, _ = totp_world () in
  let c = Statements.totp_circuit ~n_rps:2 pub in
  let rand = Drbg.of_seed "mpc-kat-garble" in
  let g = Garble.garble c ~rand_bytes:rand in
  let m = Garble.material g in
  Alcotest.(check int) "material length" (Garble.tables_bytes g) (String.length m);
  Alcotest.(check string) "tables ‖ const labels ‖ decode bits"
    "d290d8abc8de08e53fa5d8232f0a6292ce92cc710014bcca7b9714bd4fe10593" (sha_hex m);
  Alcotest.(check string) "next 32 bytes"
    "eb69c6ad05b2a16cdc8576062c54c97896dcd3b426a0761f481a127e9366f724" (Hex.encode (rand 32))

(* Base OTs, then one IKNP extension over 300 OTs (not a multiple of 8)
   with a few 40-byte messages, so the pads span two HKDF blocks. *)
let ot_kat () =
  let rand_r = Drbg.of_seed "mpc-kat-ot-r" and rand_s = Drbg.of_seed "mpc-kat-ot-s" in
  let r_base, s_base, bytes = Ot_ext.run_base_ots ~rand_bytes_r:rand_r ~rand_bytes_s:rand_s in
  Alcotest.(check int) "base-OT bytes" 12481 bytes;
  let k0, k1 = Ot_ext.r_base_seeds r_base in
  let s_bits, ks = Ot_ext.s_base_seeds s_base in
  Alcotest.(check string) "base sender seeds k0 ‖ k1"
    "919adbb69610c3ab49542924270334c9f3912da9ecfc2446ca61dbdf61af60e1"
    (sha_hex (String.concat "" (Array.to_list k0 @ Array.to_list k1)));
  Alcotest.(check string) "base receiver s ‖ ks"
    "c04f8e7fb3143db004e972a2474b24e1d88ccf2472b416a1c93619f34811ac4e"
    (sha_hex
       (Larch_util.Bytesx.string_of_bits s_bits ^ String.concat "" (Array.to_list ks)));
  Alcotest.(check string) "r next 32 bytes"
    "ddbfe2321e46f90353c26956679b694aa6e746fe7118d30aa86052e41c4389a1" (Hex.encode (rand_r 32));
  Alcotest.(check string) "s next 32 bytes"
    "4a3268ef2efb4a66d69ea93583379046787f1034e877d2a7aa4c9cd9a33e6459" (Hex.encode (rand_s 32));
  let rand = Drbg.of_seed "mpc-kat-iknp" in
  let m = 300 in
  let choices = Array.init m (fun _ -> Char.code (rand 1).[0] land 1) in
  let r_ext, u = Ot_ext.receiver_extend r_base ~choices in
  Alcotest.(check string) "u-matrix"
    "70b68a1962d4b28ca904c6913edbc0c035124d164056fee1be592153a85c79a8"
    (sha_hex (String.concat "" (Array.to_list (Ot_ext.u_matrix_columns u))));
  let s_ext = Ot_ext.sender_extend s_base ~u ~m in
  let pairs =
    Array.init m (fun i ->
        let len = if i mod 7 = 3 then 40 else 16 in
        (rand len, rand len))
  in
  let cipher = Ot_ext.sender_encrypt s_ext ~pairs in
  Alcotest.(check string) "sender ciphertexts"
    "399f72cd024eb84cf4178127b9314c3b9dc611ecb243187f62515dd6ef73cbbc"
    (sha_hex (String.concat "" (List.concat_map (fun (a, b) -> [ a; b ]) (Array.to_list cipher))));
  let got = Ot_ext.receiver_recover r_ext ~choices ~cipher in
  Array.iteri
    (fun i g ->
      let m0, m1 = pairs.(i) in
      if g <> if choices.(i) = 0 then m0 else m1 then Alcotest.failf "ot %d: wrong message" i)
    got

let channel_bytes ch =
  let s = Channel.snapshot ch in
  s.Channel.up + s.Channel.down

(* One full [run_auth] at n = 2 relying parties. *)
let run_auth_kat () =
  let k, r, pub, regs, kclient = totp_world () in
  let id = fst (List.nth regs 1) in
  let rand_client = Drbg.of_seed "mpc-kat-client" and rand_log = Drbg.of_seed "mpc-kat-log" in
  let offline = Channel.create () and online = Channel.create () in
  let out =
    Core.Totp_protocol.run_auth ~pub ~n_rps:2 ~client:(k, r, id, kclient) ~registrations:regs
      ~rand_client ~rand_log ~offline ~online
  in
  Alcotest.(check bool) "ok" true out.Core.Totp_protocol.ok;
  Alcotest.(check int) "code" 393726 out.Core.Totp_protocol.code;
  Alcotest.(check string) "ct" "4e449730981984c700507fd03e7a67dc" (Hex.encode out.Core.Totp_protocol.ct);
  Alcotest.(check string) "hmac" "61b684667606df49c6cc8e4afe2dc23cd65d0919" (Hex.encode out.Core.Totp_protocol.hmac);
  Alcotest.(check (pair int int)) "offline, online bytes" (2991626, 40960)
    (channel_bytes offline, channel_bytes online);
  Alcotest.(check string) "client next 32 bytes"
    "824d363a1d3a75502fcd5a3dc222c04b48e95b4f786ee1dd056789a6c1a7aa4e" (Hex.encode (rand_client 32));
  Alcotest.(check string) "log next 32 bytes"
    "b9cc5e2b80b796b31321b369583ef4da79d93e068853de3e51b21cb648240c92" (Hex.encode (rand_log 32))

(* The whole stack: enroll, register one TOTP relying party, log in once
   with the client's ZKBoo/2PC domain budget set to [domains]. *)
let client_kat ~domains () =
  Larch_util.Clock.set 1_700_000_000.;
  let rand_log = Drbg.of_seed "mpc-kat-logsvc" and rand_client = Drbg.of_seed "mpc-kat-cli" in
  let log = Core.Log_service.create ~rand_bytes:rand_log () in
  let c =
    Core.Client.create ~client_id:"kat" ~account_password:"pw" ~log ~rand_bytes:rand_client ()
  in
  Core.Client.enroll ~presignature_count:1 c;
  let rp = Core.Relying_party.create ~name:"kat.example" ~rand_bytes:(Drbg.of_seed "mpc-kat-rp") () in
  Core.Client.register_totp c ~rp_name:"kat.example"
    ~totp_key:(Core.Relying_party.totp_register rp ~username:"kat");
  Core.Client.set_domains c domains;
  let time = Larch_util.Clock.now () in
  let out = Core.Client.authenticate_totp_detailed c ~rp_name:"kat.example" ~time in
  Alcotest.(check bool) "relying party accepts" true
    (Core.Relying_party.totp_login rp ~username:"kat" ~time out.Core.Totp_protocol.code);
  Alcotest.(check int) "code" 974129 out.Core.Totp_protocol.code;
  Alcotest.(check string) "ct" "ecbcb7864d42bd93805755d1b968386d" (Hex.encode out.Core.Totp_protocol.ct);
  Alcotest.(check (pair int int)) "offline, online bytes" (2982130, 27136)
    (channel_bytes c.Core.Client.totp_offline, channel_bytes c.Core.Client.totp_online);
  Alcotest.(check string) "client next 32 bytes"
    "e8084133b1a6ca6439c3093d8915f5e09017951ceb992b59fbaa5b04ced734c0" (Hex.encode (rand_client 32));
  Alcotest.(check string) "log next 32 bytes"
    "31b1628b5785d4a0ecc99002df2b012a4cce9585d61e3bcc895a2601e4a9ec28" (Hex.encode (rand_log 32))

let () =
  Alcotest.run "mpc-kat"
    [
      ( "kat",
        [
          Alcotest.test_case "garbled totp n=2" `Quick garble_kat;
          Alcotest.test_case "base OTs + IKNP" `Quick ot_kat;
          Alcotest.test_case "run_auth n=2" `Quick run_auth_kat;
          Alcotest.test_case "client totp auth, domains=1" `Quick (client_kat ~domains:1);
          Alcotest.test_case "client totp auth, domains=2" `Quick (client_kat ~domains:2);
        ] );
    ]
