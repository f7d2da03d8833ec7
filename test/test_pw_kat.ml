(* Fixed-seed known-answer tests for the password protocol (Larch_PW).

   A password authentication request — the ElGamal ciphertext and the two
   Groth–Kohlweiss proofs — is a deterministic function of the client's
   DRBG stream, and the log's reply (c₂ᵏ and its DLEQ proof) of the log's.
   These SHA-256 pins were recorded from the straightforward group
   arithmetic (one ladder per exponentiation, Pippenger multi-scalar sums,
   one field inversion per encoded point).  Any rewrite of the group
   arithmetic on this path — multi-scalar algorithms, trapdoor
   commitments, batch normalisation — must reproduce them bit for bit.
   The "next 32 bytes" pins fix how much randomness each party drew and
   in what order.

   If a pin here ever changes on purpose (a deliberate protocol or format
   change), re-record it and say so loudly in the commit message. *)

module Drbg = Larch_hash.Drbg
module Hex = Larch_util.Hex
module Point = Larch_ec.Point
module Core = Larch_core
module Pw = Core.Password_protocol

let sha_hex s = Hex.encode (Larch_hash.Sha256.digest s)

(* [client_auth] over n registered identifiers, proving for an index that
   is neither the first nor (for n > 2) the last or a padding duplicate. *)
let request_kat ~n ~idx ~request ~next () =
  let rand = Drbg.of_seed (Printf.sprintf "pw-kat-request-%d" n) in
  let x, x_pub = Pw.client_gen ~rand_bytes:rand in
  let ids = List.init n (fun _ -> rand Pw.id_len) in
  let _r, req = Pw.client_auth ~idx ~x ~ids ~rand_bytes:rand in
  let bytes = Pw.encode_auth_request req in
  Alcotest.(check string) "encode_auth_request" request (sha_hex bytes);
  Alcotest.(check string) "client next 32 bytes" next (Hex.encode (rand 32));
  (* the pinned bytes are also an accepted request *)
  let log_sk, _ = Pw.log_gen ~rand_bytes:(Drbg.of_seed "pw-kat-log-key") in
  match Pw.decode_auth_request bytes with
  | None -> Alcotest.fail "decode"
  | Some req' ->
      Alcotest.(check bool) "log accepts" true
        (Option.is_some (Pw.log_auth ~log_sk ~client_pub:x_pub ~ids req'))

(* The whole stack: enroll, register three password relying parties, log
   in once through the client, then hand the log one more request directly
   and pin its reply (c₂ᵏ ‖ DLEQ proof). *)
let log_reply_kat () =
  Larch_util.Clock.set 1_700_000_000.;
  let rand_log = Drbg.of_seed "pw-kat-logsvc" and rand_client = Drbg.of_seed "pw-kat-cli" in
  let log = Core.Log_service.create ~rand_bytes:rand_log () in
  let c =
    Core.Client.create ~client_id:"kat" ~account_password:"pw" ~log ~rand_bytes:rand_client ()
  in
  Core.Client.enroll ~presignature_count:1 c;
  let names = [ "a.example"; "b.example"; "c.example" ] in
  let registered = List.map (fun rp_name -> Core.Client.register_password c ~rp_name) names in
  let pw = Core.Client.authenticate_password c ~rp_name:"b.example" in
  Alcotest.(check string) "password recombines" (List.nth registered 1) pw;
  Alcotest.(check string) "password" "larch1-fa198b0d087ad591bc74353d82be6928" pw;
  let s = Core.Client.pw_side c in
  let _r, req = Pw.client_auth ~idx:2 ~x:s.Core.Client.x ~ids:s.Core.Client.pw_ids ~rand_bytes:rand_client in
  let y, dleq, _att =
    Core.Log_service.pw_auth log ~client_id:"kat" ~ip:"192.0.2.1"
      ~now:(Larch_util.Clock.now ()) req
  in
  Alcotest.(check string) "request" "6f1c42ee70d2c011bb89a15338b115f0771c08b06ee872af9273434904e04fe7" (sha_hex (Pw.encode_auth_request req));
  Alcotest.(check string) "reply c2^k ‖ dleq"
    "3c431c64d103d4a5c96201c7851c4a137dead06af8e3964e3e44dea188ab4de5"
    (sha_hex (Point.encode y ^ Larch_sigma.Dleq.encode dleq));
  Alcotest.(check bool) "dleq verifies" true
    (Larch_sigma.Dleq.verify ~base1:Point.g ~base2:req.Pw.ct.Larch_ec.Elgamal.c2
       ~public1:s.Core.Client.log_k_pub ~public2:y ~tag:"larch-pw-log" dleq);
  Alcotest.(check string) "client next 32 bytes"
    "3e022e68d5a638c209bf3b3bb45c4f5918093ed9692c840dafb69e92b6f75cfd" (Hex.encode (rand_client 32));
  Alcotest.(check string) "log next 32 bytes"
    "5108ce3218c332255c98a4bbffc9c92756b16a3be002ea03a53c610886922ac0" (Hex.encode (rand_log 32))

let () =
  Alcotest.run "pw-kat"
    [
      ( "kat",
        [
          Alcotest.test_case "auth request n=1" `Quick
            (request_kat ~n:1 ~idx:0
               ~request:"f4b99dbf3e5852d8ff1fed29ec6f745f78bcf83b8800206ce136239a220c1645"
               ~next:"4d63f9a87f95610bafa16eaf8f410a68b0e23936a5da2b5609985f026134c0e8");
          Alcotest.test_case "auth request n=3" `Quick
            (request_kat ~n:3 ~idx:1
               ~request:"852e5ef28e0d64e144243313c913a77ab4fd32f58b8724b1f4d7cc84bbd7ef20"
               ~next:"d91d05a47dd04a632bdf2a66bb6ebe254e89666ef8e78f898ad5b586b3c22f93");
          Alcotest.test_case "auth request n=8" `Quick
            (request_kat ~n:8 ~idx:5
               ~request:"d54a80a0244d2e1e2e4b6e55dbf851e89b4bdd60ae874b9b74d67cdb5449a4e0"
               ~next:"c6f95238cda9d0aa7fa5bcbd865e41dbf04145bd01dba363aa1fed8d7cd0aba0");
          Alcotest.test_case "auth request n=128" `Quick
            (request_kat ~n:128 ~idx:77
               ~request:"a8d92ad42e034ed0baae288c48dd95b11b2139f1d0b48c65eabca62042ea864c"
               ~next:"d4e9332a7c60c4d387aba365d21c9751fdc7f8a58a034a1172a746a5383357da");
          Alcotest.test_case "log reply" `Quick log_reply_kat;
        ] );
    ]
