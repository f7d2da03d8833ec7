(* Adversarial fuzzing of every wire codec.

   Two families of properties:

   - round trips: anything encoded through [Larch_net.Wire] (and the
     protocol codecs built on it) decodes back to the value it came from;
   - rejection: truncated, inflated, bit-flipped, or random inputs are
     refused with a codec-level error ([Error _] / [None]) — never an
     [Invalid_argument] or any other exception.  The fault injector
     corrupts live traffic, so every decoder doubles as an attack
     surface. *)

open Larch_core
module Wire = Larch_net.Wire
module Scalar = Larch_ec.P256.Scalar
module Point = Larch_ec.Point
module Tpe = Two_party_ecdsa

let rand = Larch_hash.Drbg.rand_bytes_of (Larch_hash.Drbg.create ~entropy:"wire-fuzz")

(* --- generators --- *)

let raw_gen = QCheck.Gen.(string_size ~gen:char (0 -- 200))
let arb_raw = QCheck.make ~print:Larch_util.Hex.encode raw_gen

(* strings whose length prefixes suggest structure: a few random
   length-prefixed fields glued together, then possibly damaged *)
let structured_gen =
  QCheck.Gen.(
    let* n = 1 -- 4 in
    let* fields = list_size (return n) (string_size ~gen:char (0 -- 40)) in
    let enc = Wire.encode (fun w -> List.iter (Wire.bytes w) fields) in
    let* cut = 0 -- String.length enc in
    return (String.sub enc 0 cut))

let arb_structured = QCheck.make ~print:Larch_util.Hex.encode structured_gen

(* --- primitive round trips --- *)

let composite_roundtrip =
  QCheck.Test.make ~name:"composite roundtrip" ~count:300
    QCheck.(
      quad (int_bound 255) (int_bound 0xffffff) (string_of Gen.char) (list (string_of Gen.char)))
    (fun (a, b, s, xs) ->
      let enc =
        Wire.encode (fun w ->
            Wire.u8 w a;
            Wire.u32 w b;
            Wire.u64 w (Int64.of_int (a + b));
            Wire.bytes w s;
            Wire.list w Wire.bytes xs;
            Wire.fixed w "tail")
      in
      Wire.decode enc (fun r ->
          let a' = Wire.read_u8 r in
          let b' = Wire.read_u32 r in
          let c' = Wire.read_u64 r in
          let s' = Wire.read_bytes r in
          let xs' = Wire.read_list r Wire.read_bytes in
          let t' = Wire.read_fixed r 4 in
          (a', b', c', s', xs', t'))
      = Ok (a, b, Int64.of_int (a + b), s, xs, "tail"))

(* --- rejection: every malformed input must yield Error, not an exception --- *)

let decodes_cleanly (f : Wire.reader -> 'a) (s : string) : bool =
  match Wire.decode s f with Ok _ | Error _ -> true | exception _ -> false

let truncation_rejected =
  QCheck.Test.make ~name:"strict prefixes rejected" ~count:200 arb_raw (fun s ->
      let enc = Wire.encode (fun w -> Wire.bytes w s) in
      List.for_all
        (fun cut ->
          match Wire.decode (String.sub enc 0 cut) Wire.read_bytes with
          | Error _ -> true
          | Ok _ -> false
          | exception _ -> false)
        (List.init (String.length enc) (fun i -> i)))

let inflated_length_rejected =
  QCheck.Test.make ~name:"inflated length prefix rejected" ~count:200 arb_raw (fun s ->
      (* claim one more byte than is present *)
      let enc = Wire.encode (fun w -> Wire.u32 w (String.length s + 1)) ^ s in
      match Wire.decode enc Wire.read_bytes with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)

let trailing_rejected =
  QCheck.Test.make ~name:"trailing bytes rejected" ~count:200 arb_raw (fun s ->
      let enc = Wire.encode (fun w -> Wire.bytes w s) ^ "\x00" in
      match Wire.decode enc Wire.read_bytes with Error _ -> true | _ -> false)

let absurd_list_rejected () =
  List.iter
    (fun prefix ->
      match Wire.decode prefix (fun r -> Wire.read_list r Wire.read_bytes) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "absurd list accepted")
    [ "\xff\xff\xff\xff"; "\x00\x98\x96\x81" (* 10_000_001 *); "\x7f\x00\x00\x00" ]

let structured_garbage_never_raises =
  QCheck.Test.make ~name:"reader combinators never raise" ~count:500 arb_structured (fun s ->
      decodes_cleanly Wire.read_bytes s
      && decodes_cleanly (fun r -> Wire.read_list r Wire.read_bytes) s
      && decodes_cleanly (fun r -> Wire.read_fixed r 32) s
      && decodes_cleanly Wire.read_u64 s)

(* --- protocol codecs: decoders are total functions into options --- *)

let protocol_decoders : (string * (string -> bool)) list =
  [
    ("fido2 auth_request", fun s -> Fido2_protocol.decode_auth_request s |> ignore; true);
    ("fido2 auth_response1", fun s -> Fido2_protocol.decode_auth_response1 s |> ignore; true);
    ("totp registration", fun s -> Totp_protocol.decode_registration s |> ignore; true);
    ("password auth_request", fun s -> Password_protocol.decode_auth_request s |> ignore; true);
    ("halfmul_msg", fun s -> Tpe.decode_halfmul_msg s |> ignore; true);
    ("spdz reveal", fun s -> Tpe.decode_reveal s |> ignore; true);
    ("record", fun s -> Record.decode_opt s |> ignore; true);
    ("point", fun s -> Point.decode s |> ignore; true);
    ("compressed point", fun s -> Point.decode_compressed s |> ignore; true);
    ("elgamal", fun s -> Larch_ec.Elgamal.decode s |> ignore; true);
    ("dleq", fun s -> Larch_sigma.Dleq.decode s |> ignore; true);
    ("merkle sth", fun s -> Larch_merkle.Merkle.Sth.decode s |> ignore; true);
    ("merkle proof", fun s -> Larch_merkle.Merkle.decode_proof s |> ignore; true);
    ("attestation", fun s -> Log_service.decode_attestation s |> ignore; true);
    ("audit response", fun s -> Log_service.decode_audit_response s |> ignore; true);
  ]

let decoder_total_tests =
  List.map
    (fun (name, f) ->
      QCheck.Test.make ~name:(name ^ " total on garbage") ~count:300
        (QCheck.pair arb_raw arb_structured)
        (fun (a, b) ->
          (try f a with _ -> false)
          && (try f b with _ -> false)
          (* boundary sizes the fixed-width decoders branch on *)
          && List.for_all (fun n -> try f (rand n) with _ -> false) [ 0; 1; 33; 64; 65; 80; 96 ]))
    protocol_decoders

(* --- protocol round trips --- *)

(* the codec pins the canonical field sizes (16-byte id, 20-byte key
   share): canonical payloads round-trip, everything else is rejected *)
let totp_registration_roundtrip =
  QCheck.Test.make ~name:"totp registration roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 20)))
    (fun (id, klog) ->
      Totp_protocol.decode_registration (Totp_protocol.encode_registration { id; klog })
      = Some { Totp_protocol.id; klog })

let totp_registration_wrong_size =
  QCheck.Test.make ~name:"totp registration wrong sizes rejected" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let id = String.make a 'i' and klog = String.make b 'k' in
      let decoded =
        Totp_protocol.decode_registration (Totp_protocol.encode_registration { id; klog })
      in
      if a = 16 && b = 20 then decoded = Some { Totp_protocol.id; klog } else decoded = None)

let canonical_scalar () = Scalar.of_bytes_be (rand 32)

let halfmul_roundtrip =
  QCheck.Test.make ~name:"halfmul roundtrip" ~count:100 QCheck.unit (fun () ->
      let m = { Larch_mpc.Spdz.d = canonical_scalar (); e = canonical_scalar () } in
      match Tpe.decode_halfmul_msg (Tpe.encode_halfmul_msg m) with
      | Some m' ->
          Scalar.to_bytes_be m'.Larch_mpc.Spdz.d = Scalar.to_bytes_be m.Larch_mpc.Spdz.d
          && Scalar.to_bytes_be m'.Larch_mpc.Spdz.e = Scalar.to_bytes_be m.Larch_mpc.Spdz.e
      | None -> false)

let reveal_roundtrip =
  QCheck.Test.make ~name:"spdz reveal roundtrip" ~count:100 QCheck.unit (fun () ->
      let r =
        { Larch_mpc.Spdz.sigma = canonical_scalar (); tau = canonical_scalar (); nonce = rand 16 }
      in
      match Tpe.decode_reveal (Tpe.encode_reveal r) with
      | Some r' -> Tpe.encode_reveal r' = Tpe.encode_reveal r
      | None -> false)

let wrong_size_fixed_codecs () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "halfmul size %d" n)
        (n = 64)
        (Tpe.decode_halfmul_msg (rand n) <> None);
      Alcotest.(check bool)
        (Printf.sprintf "reveal size %d" n)
        (n = 80)
        (Tpe.decode_reveal (rand n) <> None))
    [ 0; 63; 64; 65; 79; 80; 81 ]

let record_roundtrip =
  QCheck.Test.make ~name:"record roundtrip" ~count:100
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (t, symmetric) ->
      let payload =
        if symmetric then
          Record.Symmetric { nonce = rand 12; ct = rand 32; signature = rand 64 }
        else
          Record.Elgamal
            {
              Larch_ec.Elgamal.c1 = Point.mul_base (canonical_scalar ());
              c2 = Point.mul_base (canonical_scalar ());
            }
      in
      let r = { Record.time = float_of_int t; ip = "10.0.0.1"; method_ = Types.Fido2; payload } in
      match Record.decode (Record.encode r) with
      | Ok r' -> Record.encode r' = Record.encode r
      | Error _ -> false)

(* --- transparency-layer codecs --- *)

module Merkle = Larch_merkle.Merkle

let sth_key = lazy (Larch_ec.Ecdsa.keygen ~rand_bytes:rand)

let mk_sth ~size : Merkle.Sth.t =
  let sk, _ = Lazy.force sth_key in
  Merkle.Sth.sign ~sk ~client_id:"fuzz-client" ~size ~root:(rand 32) ~time:1234.5

let mk_record () : Record.t =
  {
    Record.time = 42.;
    ip = "10.0.0.1";
    method_ = Types.Password;
    payload =
      Record.Elgamal
        {
          Larch_ec.Elgamal.c1 = Point.mul_base (canonical_scalar ());
          c2 = Point.mul_base (canonical_scalar ());
        };
  }

let merkle_sth_roundtrip =
  QCheck.Test.make ~name:"merkle sth roundtrip" ~count:50 QCheck.(int_bound 1_000_000)
    (fun size ->
      let sth = mk_sth ~size in
      match Merkle.Sth.decode (Merkle.Sth.encode sth) with
      | Ok s' -> Merkle.Sth.encode s' = Merkle.Sth.encode sth
      | Error _ -> false)

let merkle_proof_roundtrip =
  QCheck.Test.make ~name:"merkle proof roundtrip" ~count:100 QCheck.(int_bound 40) (fun n ->
      let proof = List.init n (fun _ -> rand 32) in
      Merkle.decode_proof (Merkle.encode_proof proof) = Ok proof)

let attestation_roundtrip =
  QCheck.Test.make ~name:"attestation roundtrip" ~count:50
    QCheck.(triple (int_bound 1000) (int_bound 20) bool)
    (fun (index, depth, degraded) ->
      let a =
        {
          Log_service.index;
          record = Record.encode (mk_record ());
          proof = (if degraded then [] else List.init depth (fun _ -> rand 32));
          sth = mk_sth ~size:(index + 1);
          degraded;
        }
      in
      match Log_service.decode_attestation (Log_service.encode_attestation a) with
      | Ok a' -> Log_service.encode_attestation a' = Log_service.encode_attestation a
      | Error _ -> false)

let audit_response_roundtrip =
  QCheck.Test.make ~name:"audit response roundtrip" ~count:30
    QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (nrecs, since) ->
      let records = List.init nrecs (fun _ -> mk_record ()) in
      let a =
        {
          Log_service.records;
          since;
          sth = mk_sth ~size:(since + nrecs);
          consistency = List.init 3 (fun _ -> rand 32);
          proofs = List.map (fun _ -> List.init 4 (fun _ -> rand 32)) records;
        }
      in
      match Log_service.decode_audit_response (Log_service.encode_audit_response a) with
      | Ok a' -> Log_service.encode_audit_response a' = Log_service.encode_audit_response a
      | Error _ -> false)

(* --- mutation fuzz of live protocol messages --- *)

(* one valid fido2 auth request (the largest message in the system),
   then random single-byte damage: decode must stay total, and a strict
   truncation must be rejected *)
let fido2_mutation () =
  let circuit = Lazy.force Larch_circuit.Larch_statements.fido2_circuit in
  let witness = Array.make circuit.Larch_circuit.Circuit.n_inputs false in
  let proof =
    Larch_zkboo.Zkboo.prove ~reps:6 ~circuit ~witness ~statement_tag:"fuzz" ~rand_bytes:rand ()
  in
  let req =
    {
      Fido2_protocol.dgst = rand 32;
      ct_nonce = rand 12;
      ct = rand 32;
      record_sig = rand 64;
      proof;
      presig_index = 3;
      hm_msg = { Larch_mpc.Spdz.d = canonical_scalar (); e = canonical_scalar () };
    }
  in
  let bytes = Fido2_protocol.encode_auth_request req in
  let n = String.length bytes in
  for _ = 1 to 200 do
    let pos = Char.code (rand 3).[0] * 256 * 256 mod n in
    let bit = Char.code (rand 1).[0] land 7 in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    match Fido2_protocol.decode_auth_request (Bytes.to_string b) with
    | Some _ | None -> ()
    | exception e ->
        Alcotest.failf "decoder raised %s on flipped bit %d of byte %d" (Printexc.to_string e)
          bit pos
  done;
  for _ = 1 to 50 do
    let cut = 1 + (Char.code (rand 1).[0] * n / 256) in
    let cut = min cut (n - 1) in
    match Fido2_protocol.decode_auth_request (String.sub bytes 0 cut) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation to %d bytes accepted" cut
    | exception e -> Alcotest.failf "decoder raised %s on truncation" (Printexc.to_string e)
  done

(* a valid attestation + audit response, then random single-byte damage:
   the decoders must stay total (corrupt proofs are for the *verifier* to
   reject, the codec just must not crash) *)
let attestation_mutation () =
  let a =
    {
      Log_service.index = 7;
      record = Record.encode (mk_record ());
      proof = List.init 6 (fun _ -> rand 32);
      sth = mk_sth ~size:8;
      degraded = false;
    }
  in
  let bytes = Log_service.encode_attestation a in
  let n = String.length bytes in
  for _ = 1 to 300 do
    let pos = Char.code (rand 3).[0] * 256 * 256 mod n in
    let bit = Char.code (rand 1).[0] land 7 in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    match Log_service.decode_attestation (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "attestation decoder raised %s on flipped bit %d of byte %d"
          (Printexc.to_string e) bit pos
  done;
  for cut = 0 to n - 1 do
    match Log_service.decode_attestation (String.sub bytes 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "attestation truncation to %d bytes accepted" cut
    | exception e -> Alcotest.failf "decoder raised %s on truncation" (Printexc.to_string e)
  done

let audit_response_mutation () =
  let records = List.init 3 (fun _ -> mk_record ()) in
  let a =
    {
      Log_service.records;
      since = 2;
      sth = mk_sth ~size:5;
      consistency = List.init 3 (fun _ -> rand 32);
      proofs = List.map (fun _ -> List.init 3 (fun _ -> rand 32)) records;
    }
  in
  let bytes = Log_service.encode_audit_response a in
  let n = String.length bytes in
  for _ = 1 to 300 do
    let pos = Char.code (rand 3).[0] * 256 * 256 mod n in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    match Log_service.decode_audit_response (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "audit response decoder raised %s on byte %d" (Printexc.to_string e) pos
  done

let password_mutation () =
  let x, _x_pub = Password_protocol.client_gen ~rand_bytes:rand in
  let ids = [ rand Password_protocol.id_len; rand Password_protocol.id_len ] in
  let _r, req = Password_protocol.client_auth ~idx:0 ~x ~ids ~rand_bytes:rand in
  let bytes = Password_protocol.encode_auth_request req in
  let n = String.length bytes in
  for _ = 1 to 200 do
    let pos = Char.code (rand 3).[0] * 256 * 256 mod n in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
    match Password_protocol.decode_auth_request (Bytes.to_string b) with
    | Some _ | None -> ()
    | exception e -> Alcotest.failf "decoder raised %s on byte %d" (Printexc.to_string e) pos
  done

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "wire-fuzz"
    [
      qsuite "primitives"
        [
          composite_roundtrip;
          truncation_rejected;
          inflated_length_rejected;
          trailing_rejected;
          structured_garbage_never_raises;
        ];
      ( "rejection",
        [
          Alcotest.test_case "absurd list lengths" `Quick absurd_list_rejected;
          Alcotest.test_case "wrong-size fixed codecs" `Quick wrong_size_fixed_codecs;
          Alcotest.test_case "fido2 mutation fuzz" `Quick fido2_mutation;
          Alcotest.test_case "password mutation fuzz" `Quick password_mutation;
          Alcotest.test_case "attestation mutation fuzz" `Quick attestation_mutation;
          Alcotest.test_case "audit response mutation fuzz" `Quick audit_response_mutation;
        ] );
      qsuite "decoder-totality" decoder_total_tests;
      qsuite "protocol-roundtrips"
        [
          totp_registration_roundtrip;
          totp_registration_wrong_size;
          halfmul_roundtrip;
          reveal_roundtrip;
          record_roundtrip;
          merkle_sth_roundtrip;
          merkle_proof_roundtrip;
          attestation_roundtrip;
          audit_response_roundtrip;
        ];
    ]
