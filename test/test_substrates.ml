(* Known-answer and property tests for the cryptographic substrates:
   bignum, hashes, MACs, ciphers, and the P-256 group + ECDSA. *)

open Larch_bignum
module Hex = Larch_util.Hex
module Bytesx = Larch_util.Bytesx

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.encode actual)

(* ---------- Nat / Modarith ---------- *)

let nat_gen =
  (* Random naturals up to ~512 bits, biased toward interesting small sizes. *)
  QCheck.Gen.(
    let* nbytes = frequency [ (2, return 0); (3, int_range 1 8); (5, int_range 9 64) ] in
    let* s = string_size ~gen:char (return nbytes) in
    return (Nat.of_bytes_be s))

let arb_nat = QCheck.make ~print:Nat.to_hex nat_gen

let nat_props =
  [
    QCheck.Test.make ~name:"add comm" ~count:200 (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    QCheck.Test.make ~name:"add/sub roundtrip" ~count:200 (QCheck.pair arb_nat arb_nat)
      (fun (a, b) -> Nat.equal (Nat.sub (Nat.add a b) b) a);
    QCheck.Test.make ~name:"mul distributes" ~count:200
      (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    QCheck.Test.make ~name:"divmod identity" ~count:200 (QCheck.pair arb_nat arb_nat)
      (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero b));
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0);
    QCheck.Test.make ~name:"bytes roundtrip" ~count:200 arb_nat (fun a ->
        let len = max 1 ((Nat.bit_length a + 7) / 8) in
        Nat.equal (Nat.of_bytes_be (Nat.to_bytes_be ~len a)) a);
    QCheck.Test.make ~name:"shift left/right inverse" ~count:200
      (QCheck.pair arb_nat QCheck.(int_range 0 100)) (fun (a, k) ->
        Nat.equal (Nat.shift_right (Nat.shift_left a k) k) a);
    QCheck.Test.make ~name:"barrett reduce = divmod" ~count:200
      (QCheck.pair arb_nat arb_nat) (fun (a, m) ->
        QCheck.assume (not (Nat.is_zero m));
        let ctx = Modarith.make m in
        (* keep within Barrett's domain: reduce a mod m^2 first *)
        let a = snd (Nat.divmod a (Nat.mul m m)) in
        Nat.equal (Modarith.reduce ctx a) (snd (Nat.divmod a m)));
  ]

let fe_props =
  let module Fe = Larch_ec.P256.Fe in
  let arb_fe = QCheck.make ~print:Nat.to_hex QCheck.Gen.(map Fe.of_nat nat_gen) in
  [
    QCheck.Test.make ~name:"field inverse" ~count:50 arb_fe (fun a ->
        QCheck.assume (not (Nat.is_zero a));
        Fe.equal (Fe.mul a (Fe.inv a)) Fe.one);
    QCheck.Test.make ~name:"field sqrt of square" ~count:50 arb_fe (fun a ->
        match Fe.sqrt (Fe.sqr a) with
        | None -> false
        | Some r -> Fe.equal r a || Fe.equal r (Fe.neg a));
    QCheck.Test.make ~name:"pow matches repeated mul" ~count:30
      (QCheck.pair arb_fe QCheck.(int_range 0 40)) (fun (a, e) ->
        let expected = ref Fe.one in
        for _ = 1 to e do
          expected := Fe.mul !expected a
        done;
        Fe.equal (Fe.pow a (Nat.of_int e)) !expected);
  ]

let nat_units () =
  Alcotest.(check string) "hex roundtrip" "deadbeef" (Nat.to_hex (Nat.of_hex "deadbeef"));
  Alcotest.(check int) "bit_length" 32 (Nat.bit_length (Nat.of_hex "ffffffff"));
  Alcotest.(check int) "to_int" 0xabcdef (Nat.to_int_exn (Nat.of_int 0xabcdef));
  let a = Nat.of_hex "100000000000000000000000000" in
  let q, r = Nat.divmod a (Nat.of_int 7) in
  Nat.(Alcotest.(check bool) "divmod identity" true (equal a (add (mul q (of_int 7)) r)))

(* ---------- Hashes ---------- *)

let sha256_vectors () =
  check_hex "sha256(empty)" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Larch_hash.Sha256.digest "");
  check_hex "sha256(abc)" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Larch_hash.Sha256.digest "abc");
  check_hex "sha256(448-bit)" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Larch_hash.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* long input exercising multi-block streaming *)
  check_hex "sha256(1M a)" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Larch_hash.Sha256.digest (String.make 1_000_000 'a'));
  (* streaming in odd-sized chunks must match one-shot *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Larch_hash.Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 3; 63; 64; 65; 100; 200; 504 ] in
  List.iter
    (fun sz ->
      Larch_hash.Sha256.feed ctx (String.sub data !pos sz);
      pos := !pos + sz)
    sizes;
  Alcotest.(check string) "streaming = one-shot"
    (Hex.encode (Larch_hash.Sha256.digest data))
    (Hex.encode (Larch_hash.Sha256.finish ctx))

let sha1_vectors () =
  check_hex "sha1(abc)" "a9993e364706816aba3e25717850c26c9cd0d89d" (Larch_hash.Sha1.digest "abc");
  check_hex "sha1(empty)" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Larch_hash.Sha1.digest "");
  check_hex "sha1(448-bit)" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Larch_hash.Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let hmac_vectors () =
  check_hex "hmac-sha256 rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Larch_hash.Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "hmac-sha256 rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Larch_hash.Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  check_hex "hmac-sha1 rfc2202 tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Larch_hash.Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "hmac-sha1 rfc2202 tc2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Larch_hash.Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?")

let hkdf_vectors () =
  (* RFC 5869 test case 1 *)
  let ikm = String.make 22 '\x0b' in
  let salt = Hex.decode "000102030405060708090a0b0c" in
  let info = Hex.decode "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Larch_hash.Hkdf.extract ~salt ikm in
  check_hex "hkdf prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "hkdf okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Larch_hash.Hkdf.expand ~prk ~info ~len:42)

let drbg_deterministic () =
  let a = Larch_hash.Drbg.of_seed "seed-1" and b = Larch_hash.Drbg.of_seed "seed-1" in
  Alcotest.(check string) "same seed, same stream" (Hex.encode (a 64)) (Hex.encode (b 64));
  let c = Larch_hash.Drbg.of_seed "seed-2" in
  Alcotest.(check bool) "different seed differs" false (a 64 = c 64)

(* ---------- Ciphers ---------- *)

let chacha20_vectors () =
  (* RFC 8439 §2.3.2 block function test vector *)
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.decode "000000090000004a00000000" in
  check_hex "chacha20 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Larch_cipher.Chacha20.block ~key ~nonce ~counter:1);
  (* RFC 8439 §2.4.2 encryption test vector *)
  let nonce2 = Hex.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  check_hex "chacha20 encrypt"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Larch_cipher.Chacha20.encrypt ~key ~nonce:nonce2 ~counter:1 plaintext);
  Alcotest.(check string) "decrypt roundtrip" plaintext
    (Larch_cipher.Chacha20.decrypt ~key ~nonce:nonce2 ~counter:1
       (Larch_cipher.Chacha20.encrypt ~key ~nonce:nonce2 ~counter:1 plaintext))

let aes_vectors () =
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f" in
  let pt = Hex.decode "00112233445566778899aabbccddeeff" in
  let ks = Larch_cipher.Aes.expand_key key in
  check_hex "aes-128 fips197" "69c4e0d86a7b0430d8cdb78070b4c55a" (Larch_cipher.Aes.encrypt_block ks pt);
  (* NIST SP 800-38A F.5.1 AES-128-CTR, adapted: our CTR uses nonce||counter32 *)
  let data = "the quick brown fox jumps over the lazy dog!" in
  let nonce = Hex.decode "000102030405060708090a0b" in
  let ct = Larch_cipher.Ctr.aes_ctr ~key ~nonce data in
  Alcotest.(check string) "aes-ctr roundtrip" data (Larch_cipher.Ctr.aes_ctr ~key ~nonce ct);
  Alcotest.(check bool) "ciphertext differs" true (ct <> data)

let sha_ctr_roundtrip () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let data = "relying-party-identifier-0123456789" in
  let ct = Larch_cipher.Ctr.sha_ctr ~key ~nonce data in
  Alcotest.(check string) "roundtrip" data (Larch_cipher.Ctr.sha_ctr ~key ~nonce ct);
  Alcotest.(check bool) "differs" true (ct <> data)

let prg_props =
  [
    QCheck.Test.make ~name:"prg deterministic & chunking-invariant" ~count:50
      (QCheck.string_of_size (QCheck.Gen.return 16))
      (fun seed ->
        let a = Larch_cipher.Prg.create seed and b = Larch_cipher.Prg.create seed in
        let x = Larch_cipher.Prg.next_bytes a 100 in
        let y1 = Larch_cipher.Prg.next_bytes b 1 in
        let y2 = Larch_cipher.Prg.next_bytes b 37 in
        let y3 = Larch_cipher.Prg.next_bytes b 62 in
        let y = y1 ^ y2 ^ y3 in
        x = y);
  ]

(* ---------- P-256 / ECDSA / ElGamal ---------- *)

module Point = Larch_ec.Point
module Scalar = Larch_ec.P256.Scalar

let rand = Larch_hash.Drbg.of_seed "test-substrates"

(* G as a fresh value rather than [Point.g] itself: [Point.mul] hands the
   physical base point to the comb of [Point.mul_base], so tests of the
   variable-base wNAF path multiply this copy instead. *)
let g_wnaf =
  Point.of_affine ~x:(Larch_ec.P256.Fe.of_nat Larch_ec.P256.gx)
    ~y:(Larch_ec.P256.Fe.of_nat Larch_ec.P256.gy)

let p256_known_points () =
  Alcotest.(check bool) "G on curve" true (Point.is_on_curve Point.g);
  let two_g = Point.double Point.g in
  let x, y = Option.get (Point.to_affine two_g) in
  Alcotest.(check string) "2G.x" "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
    (Nat.to_hex x);
  Alcotest.(check string) "2G.y" "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
    (Nat.to_hex y);
  Alcotest.(check bool) "2G = G+G" true (Point.equal two_g (Point.add Point.g Point.g));
  Alcotest.(check bool) "nG = infinity (comb)" true
    (Point.is_infinity (Point.mul (Larch_ec.P256.n :> Nat.t) Point.g));
  Alcotest.(check bool) "nG = infinity (wNAF)" true
    (Point.is_infinity (Point.mul (Larch_ec.P256.n :> Nat.t) g_wnaf))

let p256_group_props =
  let arb_scalar =
    QCheck.make ~print:Nat.to_hex QCheck.Gen.(map (fun s -> Scalar.of_bytes_be s) (string_size ~gen:char (return 40)))
  in
  [
    QCheck.Test.make ~name:"mul distributes over scalar add" ~count:15
      (QCheck.pair arb_scalar arb_scalar) (fun (a, b) ->
        Point.equal
          (Point.mul_base (Scalar.add a b))
          (Point.add (Point.mul_base a) (Point.mul_base b)));
    QCheck.Test.make ~name:"mul matches mul_base" ~count:15 arb_scalar (fun a ->
        Point.equal (Point.mul a g_wnaf) (Point.mul_base a));
    QCheck.Test.make ~name:"encode/decode roundtrip" ~count:15 arb_scalar (fun a ->
        let p = Point.mul_base a in
        Point.equal (Point.decode_exn (Point.encode p)) p);
    QCheck.Test.make ~name:"P + (-P) = infinity" ~count:15 arb_scalar (fun a ->
        let p = Point.mul_base a in
        Point.is_infinity (Point.add p (Point.neg p)));
    QCheck.Test.make ~name:"associativity sample" ~count:10
      (QCheck.triple arb_scalar arb_scalar arb_scalar) (fun (a, b, c) ->
        let pa = Point.mul_base a and pb = Point.mul_base b and pc = Point.mul_base c in
        Point.equal (Point.add (Point.add pa pb) pc) (Point.add pa (Point.add pb pc)));
  ]

let ecdsa_rfc6979 () =
  let sk = Scalar.of_nat (Nat.of_hex "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721") in
  let pk = Point.mul_base sk in
  let x, y = Option.get (Point.to_affine pk) in
  Alcotest.(check string) "pk.x" "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6" (Nat.to_hex x);
  Alcotest.(check string) "pk.y" "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299" (Nat.to_hex y);
  let sg = Larch_ec.Ecdsa.sign ~sk "sample" in
  Alcotest.(check string) "r(sample)" "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716" (Nat.to_hex sg.r);
  Alcotest.(check string) "s(sample)" "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8" (Nat.to_hex sg.s);
  Alcotest.(check bool) "verifies" true (Larch_ec.Ecdsa.verify ~pk "sample" sg);
  let sg2 = Larch_ec.Ecdsa.sign ~sk "test" in
  Alcotest.(check string) "r(test)" "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367" (Nat.to_hex sg2.r);
  Alcotest.(check string) "s(test)" "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083" (Nat.to_hex sg2.s)

(* Known-answer scalar multiplication: small multiples of G (independently
   recomputed from the curve equation), k = n-1 (the negation edge of the
   wNAF recoding), and a full-width scalar.  [Point.mul] on [g_wnaf]
   exercises the wNAF ladder, [Point.mul_base] the comb, and they must agree with each other
   and with the published points. *)
let check_affine msg (ex, ey) pt =
  match Point.to_affine pt with
  | None -> Alcotest.failf "%s: unexpected infinity" msg
  | Some (x, y) ->
      Alcotest.(check string) (msg ^ ".x") ex (Nat.to_hex x);
      Alcotest.(check string) (msg ^ ".y") ey (Nat.to_hex y)

let p256_scalar_mul_kats () =
  let kats =
    [
      ( 2,
        "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
        "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1" );
      ( 3,
        "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
        "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032" );
      ( 4,
        "e2534a3532d08fbba02dde659ee62bd0031fe2db785596ef509302446b030852",
        "e0f1575a4c633cc719dfee5fda862d764efc96c3f30ee0055c42c23f184ed8c6" );
      ( 5,
        "51590b7a515140d2d784c85608668fdfef8c82fd1f5be52421554a0dc3d033ed",
        "e0c17da8904a727d8ae1bf36bf8a79260d012f00d4d80888d1d0bb44fda16da4" );
    ]
  in
  Alcotest.(check bool) "G copy is not physically G" true (g_wnaf != Point.g && Point.equal g_wnaf Point.g);
  Alcotest.(check bool) "1*G = G (wNAF)" true (Point.equal (Point.mul Nat.one g_wnaf) Point.g);
  Alcotest.(check bool) "1*G = G (comb)" true (Point.equal (Point.mul_base Nat.one) Point.g);
  List.iter
    (fun (k, x, y) ->
      let kn = Nat.of_int k in
      check_affine (string_of_int k ^ "G wNAF") (x, y) (Point.mul kn g_wnaf);
      check_affine (string_of_int k ^ "G comb") (x, y) (Point.mul_base kn))
    kats;
  (* (n-1)*G = -G: same x as G, y = p - G.y.  Exercises the top negative
     wNAF digit and the comb's final window. *)
  let n_minus_1 = Nat.sub Larch_ec.P256.n Nat.one in
  let neg_g =
    ( "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
      "b01cbd1c01e58065711814b583f061e9d431cca994cea1313449bf97c840ae0a" )
  in
  check_affine "(n-1)G wNAF" neg_g (Point.mul n_minus_1 g_wnaf);
  check_affine "(n-1)G comb" neg_g (Point.mul_base n_minus_1);
  (* full-width scalar (the RFC 6979 key) through the wNAF path *)
  let sk = Nat.of_hex "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721" in
  check_affine "skG wNAF"
    ( "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6",
      "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299" )
    (Point.mul sk g_wnaf);
  (* Strauss-Shamir joint ladder against its naive decomposition *)
  let u1 = Scalar.of_bytes_be (rand 40) and u2 = Scalar.of_bytes_be (rand 40) in
  let q = Point.mul_base (Scalar.of_bytes_be (rand 40)) in
  Alcotest.(check bool) "mul_add = u1*G + u2*Q" true
    (Point.equal (Point.mul_add u1 u2 q) (Point.add (Point.mul_base u1) (Point.mul u2 q)));
  Alcotest.(check bool) "mul_add with k2 = 0" true
    (Point.equal (Point.mul_add u1 Scalar.zero q) (Point.mul_base u1));
  Alcotest.(check bool) "mul_add with k1 = 0" true
    (Point.equal (Point.mul_add Scalar.zero u2 q) (Point.mul u2 q))

(* Verify-side RFC 6979 vectors: signatures built from the published r/s
   (not produced by our signer), pushed through [Ecdsa.verify] and hence the
   Strauss-Shamir [Point.mul_add]. *)
let ecdsa_verify_vectors () =
  let fe h = Larch_ec.P256.Fe.of_nat (Nat.of_hex h) in
  let pk =
    Point.of_affine
      ~x:(fe "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6")
      ~y:(fe "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299")
  in
  let sig_of r s = Larch_ec.Ecdsa.{ r = Scalar.of_nat (Nat.of_hex r); s = Scalar.of_nat (Nat.of_hex s) } in
  let sg_sample =
    sig_of "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
      "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"
  in
  Alcotest.(check bool) "verify(sample)" true (Larch_ec.Ecdsa.verify ~pk "sample" sg_sample);
  let sg_test =
    sig_of "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367"
      "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083"
  in
  Alcotest.(check bool) "verify(test)" true (Larch_ec.Ecdsa.verify ~pk "test" sg_test);
  Alcotest.(check bool) "cross message rejected" false
    (Larch_ec.Ecdsa.verify ~pk "test" sg_sample);
  Alcotest.(check bool) "swapped r/s rejected" false
    (Larch_ec.Ecdsa.verify ~pk "sample" Larch_ec.Ecdsa.{ r = sg_sample.s; s = sg_sample.r });
  Alcotest.(check bool) "zero r rejected" false
    (Larch_ec.Ecdsa.verify ~pk "sample" Larch_ec.Ecdsa.{ sg_sample with r = Scalar.zero })

(* The cached base-point tables (comb for mul_base, odd multiples of G for
   mul_add) must be built exactly once even when first forced from several
   domains at once. *)
let table_once_parallel () =
  let scalars = Array.init 16 (fun i -> Scalar.of_nat (Nat.of_int (i + 2))) in
  let combed = Larch_util.Parallel.map ~domains:4 (fun k -> Point.encode (Point.mul_base k)) scalars in
  (* q is not g, so every call runs a g lane on the cached odd multiples *)
  let q = Point.double Point.g in
  let _ = Larch_util.Parallel.map ~domains:4 (fun k -> Point.encode (Point.mul_add k k q)) scalars in
  Alcotest.(check string) "mul_base correct under domains"
    (Point.encode (Point.double Point.g)) combed.(0);
  let builds = Point.base_table_builds () in
  Alcotest.(check bool)
    (Printf.sprintf "each table built at most once (saw %d builds)" builds)
    true (builds <= 2)

let ecdsa_negative () =
  let sk, pk = Larch_ec.Ecdsa.keygen ~rand_bytes:rand in
  let sg = Larch_ec.Ecdsa.sign ~sk "message" in
  Alcotest.(check bool) "good verifies" true (Larch_ec.Ecdsa.verify ~pk "message" sg);
  Alcotest.(check bool) "wrong message rejected" false (Larch_ec.Ecdsa.verify ~pk "other" sg);
  let bad = { sg with s = Scalar.add sg.s Scalar.one } in
  Alcotest.(check bool) "tampered s rejected" false (Larch_ec.Ecdsa.verify ~pk "message" bad);
  let _, pk2 = Larch_ec.Ecdsa.keygen ~rand_bytes:rand in
  Alcotest.(check bool) "wrong key rejected" false (Larch_ec.Ecdsa.verify ~pk:pk2 "message" sg)

let elgamal_roundtrip () =
  let sk, pk = Larch_ec.Elgamal.keygen ~rand_bytes:rand in
  let msg = Larch_ec.Hash_to_curve.hash "hello-rp" in
  let r = Scalar.random_nonzero ~rand_bytes:rand in
  let ct = Larch_ec.Elgamal.encrypt ~pk ~msg ~r in
  Alcotest.(check bool) "decrypt" true (Point.equal (Larch_ec.Elgamal.decrypt ~sk ct) msg);
  let r2 = Scalar.random_nonzero ~rand_bytes:rand in
  let ct2 = Larch_ec.Elgamal.rerandomize ~pk ~r:r2 ct in
  Alcotest.(check bool) "rerandomized decrypts same" true
    (Point.equal (Larch_ec.Elgamal.decrypt ~sk ct2) msg);
  Alcotest.(check bool) "rerandomized ct differs" false
    (Larch_ec.Elgamal.encode ct = Larch_ec.Elgamal.encode ct2)

let hash_to_curve_props () =
  let p1 = Larch_ec.Hash_to_curve.hash "id-1" and p1' = Larch_ec.Hash_to_curve.hash "id-1" in
  let p2 = Larch_ec.Hash_to_curve.hash "id-2" in
  Alcotest.(check bool) "deterministic" true (Point.equal p1 p1');
  Alcotest.(check bool) "distinct inputs distinct points" false (Point.equal p1 p2);
  Alcotest.(check bool) "on curve" true (Point.is_on_curve p1)

(* ---------- util ---------- *)

let util_tests () =
  Alcotest.(check string) "hex" "00ff10" (Hex.encode (Hex.decode "00ff10"));
  Alcotest.(check string) "xor" "\x03" (Bytesx.xor "\x01" "\x02");
  Alcotest.(check bool) "ct_equal eq" true (Bytesx.ct_equal "abc" "abc");
  Alcotest.(check bool) "ct_equal neq" false (Bytesx.ct_equal "abc" "abd");
  Alcotest.(check bool) "ct_equal len" false (Bytesx.ct_equal "abc" "abcd");
  let bits = Bytesx.bits_of_string "\x05\x80" in
  Alcotest.(check (list int)) "bits" [ 1; 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1 ]
    (Array.to_list bits);
  Alcotest.(check string) "bits roundtrip" "\x05\x80" (Bytesx.string_of_bits bits)

let parallel_tests () =
  let xs = Array.init 100 (fun i -> i) in
  let seq = Larch_util.Parallel.map ~domains:1 (fun x -> x * x) xs in
  let par = Larch_util.Parallel.map ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (array int)) "parallel = sequential" seq par;
  (* [both]: the same pair at either domain budget; an exception from
     either side surfaces after both finish *)
  let pair d = Larch_util.Parallel.both ~domains:d (fun () -> Array.fold_left ( + ) 0 xs) (fun () -> "g") in
  Alcotest.(check (pair int string)) "both, 1 domain" (4950, "g") (pair 1);
  Alcotest.(check (pair int string)) "both, 2 domains" (4950, "g") (pair 2);
  List.iter
    (fun (name, f, g) ->
      Alcotest.check_raises name (Failure name) (fun () ->
          ignore (Larch_util.Parallel.both ~domains:2 f g)))
    [
      ("worker raises", (fun () -> failwith "worker raises"), fun () -> ());
      ("caller raises", (fun () -> ()), fun () -> failwith "caller raises");
    ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "substrates"
    [
      ( "util",
        [
          Alcotest.test_case "bytes+hex" `Quick util_tests;
          Alcotest.test_case "parallel map" `Quick parallel_tests;
        ] );
      ("nat", [ Alcotest.test_case "units" `Quick nat_units ]);
      qsuite "nat-props" nat_props;
      qsuite "field-props" fe_props;
      ( "hash",
        [
          Alcotest.test_case "sha256 vectors" `Quick sha256_vectors;
          Alcotest.test_case "sha1 vectors" `Quick sha1_vectors;
          Alcotest.test_case "hmac vectors" `Quick hmac_vectors;
          Alcotest.test_case "hkdf vectors" `Quick hkdf_vectors;
          Alcotest.test_case "drbg determinism" `Quick drbg_deterministic;
        ] );
      ( "cipher",
        [
          Alcotest.test_case "chacha20 vectors" `Quick chacha20_vectors;
          Alcotest.test_case "aes vectors" `Quick aes_vectors;
          Alcotest.test_case "sha-ctr roundtrip" `Quick sha_ctr_roundtrip;
        ] );
      qsuite "prg-props" prg_props;
      ( "p256",
        [
          Alcotest.test_case "known points" `Quick p256_known_points;
          Alcotest.test_case "scalar-mul KATs" `Quick p256_scalar_mul_kats;
          Alcotest.test_case "table built once under domains" `Quick table_once_parallel;
          Alcotest.test_case "ecdsa rfc6979" `Quick ecdsa_rfc6979;
          Alcotest.test_case "ecdsa verify vectors" `Quick ecdsa_verify_vectors;
          Alcotest.test_case "ecdsa negative" `Quick ecdsa_negative;
          Alcotest.test_case "elgamal" `Quick elgamal_roundtrip;
          Alcotest.test_case "hash-to-curve" `Quick hash_to_curve_props;
        ] );
      qsuite "p256-props" p256_group_props;
    ]
