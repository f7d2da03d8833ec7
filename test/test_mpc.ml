(* MPC substrate tests: secret sharing, Shamir, half-authenticated SPDZ
   multiplication, base OT, IKNP extension, garbling, and the Yao runner on
   the real larch TOTP circuit. *)

module Scalar = Larch_ec.P256.Scalar
module Bytesx = Larch_util.Bytesx
open Larch_mpc

let rand = Larch_hash.Drbg.of_seed "test-mpc"

let sharing_roundtrip () =
  let x = Scalar.random ~rand_bytes:rand in
  let x1, x2 = Sharing.additive x ~rand_bytes:rand in
  Alcotest.(check bool) "additive" true (Scalar.equal (Sharing.additive_recover x1 x2) x);
  let s = rand 37 in
  let s1, s2 = Sharing.xor s ~rand_bytes:rand in
  Alcotest.(check string) "xor" s (Sharing.xor_recover s1 s2)

let shamir_roundtrip () =
  let secret = Scalar.random ~rand_bytes:rand in
  let shares = Shamir.split ~threshold:3 ~n:5 secret ~rand_bytes:rand in
  let take idxs = List.filter (fun s -> List.mem s.Shamir.index idxs) shares in
  Alcotest.(check bool) "3 of 5" true (Scalar.equal (Shamir.reconstruct (take [ 1; 3; 5 ])) secret);
  Alcotest.(check bool) "all 5" true (Scalar.equal (Shamir.reconstruct shares) secret);
  Alcotest.(check bool) "2 of 5 fails" false
    (Scalar.equal (Shamir.reconstruct (take [ 2; 4 ])) secret);
  (* lagrange coefficients recombine in the exponent *)
  let idxs = [ 1; 2; 4 ] in
  let combo =
    List.fold_left
      (fun acc s ->
        if List.mem s.Shamir.index idxs then
          Scalar.add acc
            (Scalar.mul s.Shamir.value (Shamir.lagrange_coefficient ~at:s.Shamir.index idxs))
        else acc)
      Scalar.zero shares
  in
  Alcotest.(check bool) "lagrange coeffs" true (Scalar.equal combo secret)

let spdz_halfmul_correct () =
  let x = Scalar.random ~rand_bytes:rand in
  let y = Scalar.random ~rand_bytes:rand in
  let y0, y1 = Sharing.additive y ~rand_bytes:rand in
  let pair, _alpha = Spdz.make_halfmul_inputs ~x ~y0 ~y1 ~rand_bytes:rand in
  let m0 = Spdz.halfmul_round1 pair.Spdz.share0 in
  let m1 = Spdz.halfmul_round1 pair.Spdz.share1 in
  let o0 = Spdz.halfmul_finish ~party:0 pair.Spdz.share0 ~own:m0 ~other:m1 in
  let o1 = Spdz.halfmul_finish ~party:1 pair.Spdz.share1 ~own:m1 ~other:m0 in
  Alcotest.(check bool) "z = x*y" true
    (Scalar.equal (Scalar.add o0.Spdz.z o1.Spdz.z) (Scalar.mul x y));
  (* opening with MAC check accepts *)
  let s_total = Scalar.add o0.Spdz.z o1.Spdz.z in
  let inp i (o : Spdz.halfmul_output) (p : Spdz.halfmul_input) =
    ignore i;
    Spdz.{ s = o.z; shat = o.zhat; d_pub = o.d_open; dhat_share = o.dhat; alpha_share = p.alpha }
  in
  let st0, c0 = Spdz.open_round1 (inp 0 o0 pair.Spdz.share0) ~s_total ~rand_bytes:rand in
  let st1, c1 = Spdz.open_round1 (inp 1 o1 pair.Spdz.share1) ~s_total ~rand_bytes:rand in
  Alcotest.(check bool) "party0 accepts" true
    (Spdz.open_check ~own:st0 ~other_commit:c1 ~other_reveal:st1.Spdz.reveal);
  Alcotest.(check bool) "party1 accepts" true
    (Spdz.open_check ~own:st1 ~other_commit:c0 ~other_reveal:st0.Spdz.reveal)

let spdz_halfmul_detects_nonce_shift () =
  (* shifting the authenticated input x (the signing nonce) is caught *)
  let x = Scalar.random ~rand_bytes:rand in
  let y = Scalar.random ~rand_bytes:rand in
  let y0, y1 = Sharing.additive y ~rand_bytes:rand in
  let pair, _ = Spdz.make_halfmul_inputs ~x ~y0 ~y1 ~rand_bytes:rand in
  (* party 1 cheats: uses x + 1 *)
  let cheat = { pair.Spdz.share1 with Spdz.x = Scalar.add pair.Spdz.share1.Spdz.x Scalar.one } in
  let m0 = Spdz.halfmul_round1 pair.Spdz.share0 in
  let m1 = Spdz.halfmul_round1 cheat in
  let o0 = Spdz.halfmul_finish ~party:0 pair.Spdz.share0 ~own:m0 ~other:m1 in
  let o1 = Spdz.halfmul_finish ~party:1 cheat ~own:m1 ~other:m0 in
  let s_total = Scalar.add o0.Spdz.z o1.Spdz.z in
  let st0, _c0 =
    Spdz.open_round1
      Spdz.{ s = o0.z; shat = o0.zhat; d_pub = o0.d_open; dhat_share = o0.dhat; alpha_share = pair.Spdz.share0.Spdz.alpha }
      ~s_total ~rand_bytes:rand
  in
  let st1, c1 =
    Spdz.open_round1
      Spdz.{ s = o1.z; shat = o1.zhat; d_pub = o1.d_open; dhat_share = o1.dhat; alpha_share = cheat.Spdz.alpha }
      ~s_total ~rand_bytes:rand
  in
  Alcotest.(check bool) "honest party rejects" false
    (Spdz.open_check ~own:st0 ~other_commit:c1 ~other_reveal:st1.Spdz.reveal)

let base_ot_correct () =
  let st, setup = Ot.sender_setup (Scalar.random_nonzero ~rand_bytes:rand) in
  List.iter
    (fun choice ->
      let rstate, rmsg =
        Ot.receiver_choose ~setup ~choice (Scalar.random_nonzero ~rand_bytes:rand)
      in
      let m0 = rand 24 and m1 = rand 24 in
      let payload = Ot.sender_encrypt ~state:st ~msg:rmsg ~m0 ~m1 in
      let got = Ot.receiver_recover ~state:rstate ~choice payload in
      Alcotest.(check string) "chosen message" (if choice = 0 then m0 else m1) got;
      Alcotest.(check bool) "other message hidden" false
        (got = if choice = 0 then m1 else m0))
    [ 0; 1; 0; 1 ]

let iknp_correct () =
  let r_base, s_base, _bytes = Ot_ext.run_base_ots ~rand_bytes_r:rand ~rand_bytes_s:rand in
  let m = 300 in
  let choices = Array.init m (fun _ -> Char.code (rand 1).[0] land 1) in
  let r_ext, u = Ot_ext.receiver_extend r_base ~choices in
  let s_ext = Ot_ext.sender_extend s_base ~u ~m in
  let pairs = Array.init m (fun _ -> (rand 16, rand 16)) in
  let cipher = Ot_ext.sender_encrypt s_ext ~pairs in
  let got = Ot_ext.receiver_recover r_ext ~choices ~cipher in
  Array.iteri
    (fun i g ->
      let m0, m1 = pairs.(i) in
      Alcotest.(check string) (Printf.sprintf "ot %d" i) (if choices.(i) = 0 then m0 else m1) g)
    got

let garble_matches_cleartext () =
  (* random small circuits: compare garbled evaluation with plain eval *)
  let module Builder = Larch_circuit.Builder in
  for trial = 1 to 5 do
    let b = Builder.create () in
    let inputs = Builder.inputs b 16 in
    (* build a random gate soup *)
    let wires = ref (Array.to_list inputs) in
    let pick () =
      let l = !wires in
      List.nth l (Char.code (rand 1).[0] mod List.length l)
    in
    for _ = 1 to 60 do
      let w =
        match Char.code (rand 1).[0] mod 4 with
        | 0 -> Builder.band b (pick ()) (pick ())
        | 1 -> Builder.bxor b (pick ()) (pick ())
        | 2 -> Builder.bnot b (pick ())
        | _ -> Builder.const b (Char.code (rand 1).[0] land 1 = 1)
      in
      wires := w :: !wires
    done;
    let outputs = Array.init 8 (fun _ -> pick ()) in
    let c = Builder.finalize b ~outputs in
    let input_bits = Array.init 16 (fun _ -> Char.code (rand 1).[0] land 1 = 1) in
    let expected = Larch_circuit.Circuit.eval c input_bits in
    let g = Garble.garble c ~rand_bytes:rand in
    let active =
      Array.init 16 (fun i -> Garble.active_input g i (if input_bits.(i) then 1 else 0))
    in
    let out_labels =
      Garble.evaluate c ~tables:g.Garble.tables ~const_labels:g.Garble.const_labels
        ~active_inputs:active
    in
    let decoded = Garble.decode_outputs g out_labels in
    Array.iteri
      (fun i v ->
        Alcotest.(check int)
          (Printf.sprintf "trial %d output %d" trial i)
          (if expected.(i) then 1 else 0)
          v)
      decoded;
    (* garbler-side decode agrees *)
    Array.iteri
      (fun i l ->
        match Garble.garbler_decode g i l with
        | Some v -> Alcotest.(check int) "garbler decode" (if expected.(i) then 1 else 0) v
        | None -> Alcotest.fail "garbler decode: invalid label")
      out_labels
  done

(* Property: over random circuits that include Const, Not and And(a, a)
   gates, garble → evaluate → decode agrees with cleartext evaluation on
   both sides, and a returned output label with one bit flipped is caught
   as cheating. *)
let garble_random_circuit_props =
  let module C = Larch_circuit.Circuit in
  let gen =
    QCheck.Gen.(
      let* n_in = int_range 1 8 in
      let* n_gates = int_range 1 60 in
      let* seed = string_size ~gen:char (return 16) in
      return (n_in, n_gates, seed))
  in
  let arb = QCheck.make ~print:(fun (a, b, _) -> Printf.sprintf "in=%d gates=%d" a b) gen in
  [
    QCheck.Test.make ~name:"garble/evaluate/decode = eval" ~count:100 arb
      (fun (n_in, n_gates, seed) ->
        let prg = Larch_hash.Drbg.of_seed ("garble-prop" ^ seed) in
        let byte () = Char.code (prg 1).[0] in
        let gates =
          Array.init n_gates (fun i ->
              let pick () = byte () mod (n_in + i) in
              match byte () mod 5 with
              | 0 -> C.And (pick (), pick ())
              | 1 ->
                  let a = pick () in
                  C.And (a, a)
              | 2 -> C.Xor (pick (), pick ())
              | 3 -> C.Not (pick ())
              | _ -> C.Const (byte () land 1 = 1))
        in
        let n_out = 1 + (byte () mod 8) in
        let c =
          C.make ~n_inputs:n_in ~gates ~outputs:(Array.init n_out (fun _ -> byte () mod (n_in + n_gates)))
        in
        let bits = Array.init n_in (fun _ -> byte () land 1 = 1) in
        let expected = Array.map (fun b -> if b then 1 else 0) (C.eval c bits) in
        let g = Garble.garble c ~rand_bytes:prg in
        let active_inputs = Array.mapi (fun i b -> Garble.active_input g i (if b then 1 else 0)) bits in
        let out =
          Garble.evaluate c ~tables:g.Garble.tables ~const_labels:g.Garble.const_labels ~active_inputs
        in
        let flip = byte () mod n_out and bit = byte () mod (8 * Garble.label_len) in
        let tampered =
          Array.mapi
            (fun i l ->
              if i <> flip then l
              else begin
                let b = Bytes.of_string l in
                Bytesx.set_bit b bit (1 - Bytesx.get_bit l bit);
                Bytes.to_string b
              end)
            out
        in
        Garble.decode_outputs g out = expected
        && Yao.garbler_outputs g ~first:0 out = expected
        &&
        match Yao.garbler_outputs g ~first:0 tampered with
        | _ -> false
        | exception Yao.Cheating _ -> true);
  ]

(* The allocation-free IKNP pad is HKDF-SHA256 of the row, for pads of one
   and of several HKDF blocks. *)
let iknp_pad_is_hkdf () =
  List.iter
    (fun len ->
      let i = len * 7919 and row = rand 16 in
      Alcotest.(check string) (Printf.sprintf "pad len %d" len)
        (Larch_hash.Hkdf.derive ~ikm:row ~info:("iknp-pad" ^ Bytesx.be32 i) ~len ())
        (Ot_ext.pad i row len))
    [ 0; 1; 15; 16; 31; 32; 33; 64; 65; 100 ]

let yao_totp_end_to_end () =
  let k = rand 32 and r = rand 16 in
  let cm = Larch_hash.Sha256.digest (k ^ r) in
  let pub = Larch_circuit.Larch_statements.{ cm; enc_nonce = rand 12; time_counter = 1234L } in
  let n_rps = 3 in
  let regs = List.init n_rps (fun _ -> (rand 16, rand 20)) in
  let id, klog = List.nth regs 1 in
  let kclient = rand 20 in
  let circuit = Larch_circuit.Larch_statements.totp_circuit ~n_rps pub in
  let garbler_inputs = Larch_circuit.Larch_statements.totp_client_input ~k ~r ~id ~kclient in
  let evaluator_inputs = Larch_circuit.Larch_statements.totp_log_input ~registrations:regs in
  let offline = Larch_net.Channel.create () and online = Larch_net.Channel.create () in
  let cfg =
    Yao.{ circuit; n_garbler_inputs = Array.length garbler_inputs; n_evaluator_outputs = 129 }
  in
  let outcome =
    Yao.run cfg ~garbler_inputs ~evaluator_inputs ~rand_garbler:rand ~rand_evaluator:rand
      ~offline ~online
  in
  (* expected values *)
  let k_id = Bytesx.xor kclient klog in
  let hmac, ct = Larch_circuit.Larch_statements.totp_compute ~k ~id ~k_id pub in
  Alcotest.(check int) "ok bit" 1 outcome.Yao.evaluator_outputs.(0);
  let ct_bits = Array.sub outcome.Yao.evaluator_outputs 1 128 in
  Alcotest.(check string) "log learns ct" (Larch_util.Hex.encode ct)
    (Larch_util.Hex.encode (Bytesx.string_of_bits ct_bits));
  Alcotest.(check string) "client learns hmac" (Larch_util.Hex.encode hmac)
    (Larch_util.Hex.encode (Bytesx.string_of_bits outcome.Yao.garbler_outputs));
  let off = Larch_net.Channel.snapshot offline and on = Larch_net.Channel.snapshot online in
  Printf.printf "\n  [yao totp n=3] offline %.2f MiB online %.1f KiB\n"
    (float_of_int (off.Larch_net.Channel.up + off.Larch_net.Channel.down) /. 1024. /. 1024.)
    (float_of_int (on.Larch_net.Channel.up + on.Larch_net.Channel.down) /. 1024.);
  Alcotest.(check bool) "offline dominates online" true
    (off.Larch_net.Channel.up + off.Larch_net.Channel.down
    > on.Larch_net.Channel.up + on.Larch_net.Channel.down)

let () =
  Alcotest.run "mpc"
    [
      ( "sharing",
        [
          Alcotest.test_case "additive/xor" `Quick sharing_roundtrip;
          Alcotest.test_case "shamir" `Quick shamir_roundtrip;
        ] );
      ( "spdz",
        [
          Alcotest.test_case "halfmul correct" `Quick spdz_halfmul_correct;
          Alcotest.test_case "nonce shift detected" `Quick spdz_halfmul_detects_nonce_shift;
        ] );
      ( "ot",
        [
          Alcotest.test_case "base ot" `Quick base_ot_correct;
          Alcotest.test_case "iknp extension" `Quick iknp_correct;
          Alcotest.test_case "iknp pad = hkdf" `Quick iknp_pad_is_hkdf;
        ] );
      ( "garble",
        [
          Alcotest.test_case "vs cleartext" `Quick garble_matches_cleartext;
          Alcotest.test_case "yao totp end-to-end" `Slow yao_totp_end_to_end;
        ] );
      ("garble-props", List.map QCheck_alcotest.to_alcotest garble_random_circuit_props);
    ]
