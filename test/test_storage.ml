open Helpers
module St = Graph.Storage

(* Graph.Storage: the off-heap backing for big per-run state. The
   vectors and bitset are checked for round-trips, growth and boundary
   bits, and the accessors are checked to be allocation-free, which is
   the whole point of the layer. *)

let test_i32_basics () =
  let v = St.I32.create 8 in
  Alcotest.(check int) "length" 8 (St.I32.length v);
  for i = 0 to 7 do
    Alcotest.(check int) "zero-filled" 0 (St.I32.get v i)
  done;
  St.I32.set v 3 42;
  St.I32.set v 0 (-7);
  Alcotest.(check int) "round-trip" 42 (St.I32.get v 3);
  Alcotest.(check int) "negative round-trip" (-7) (St.I32.get v 0);
  let big = (1 lsl 31) - 1 in
  St.I32.set v 1 big;
  Alcotest.(check int) "int32 max round-trips" big (St.I32.get v 1);
  St.I32.fill v 2 4 9;
  Alcotest.(check int) "fill start" 9 (St.I32.get v 2);
  Alcotest.(check int) "fill end" 9 (St.I32.get v 5);
  Alcotest.(check int) "fill leaves below" (-7) (St.I32.get v 0);
  Alcotest.(check int) "fill leaves above" 0 (St.I32.get v 6);
  let w = St.I32.create 8 in
  St.I32.blit v 2 w 1 4;
  Alcotest.(check int) "blit copies" 9 (St.I32.get w 4);
  Alcotest.(check int) "blit leaves rest" 0 (St.I32.get w 0)

let test_i32_ensure () =
  let v = St.I32.create 4 in
  for i = 0 to 3 do
    St.I32.set v i (i + 1)
  done;
  St.I32.ensure v 3;
  Alcotest.(check int) "ensure never shrinks" 4 (St.I32.length v);
  St.I32.ensure v 100;
  check_true "ensure grows to at least the ask" (St.I32.length v >= 100);
  for i = 0 to 3 do
    Alcotest.(check int) "contents preserved" (i + 1) (St.I32.get v i)
  done;
  Alcotest.(check int) "new cells zero" 0 (St.I32.get v 99)

let test_ix_basics () =
  let v = St.Ix.create 4 in
  (* Pair indices overflow int32 — the reason Ix exists. *)
  let big = 1 lsl 39 in
  St.Ix.set v 0 big;
  St.Ix.set v 1 (big + 1);
  Alcotest.(check int) "beyond-int32 round-trip" big (St.Ix.get v 0);
  St.Ix.ensure v 50;
  Alcotest.(check int) "growth preserves" (big + 1) (St.Ix.get v 1);
  Alcotest.(check int) "new cells zero" 0 (St.Ix.get v 49);
  St.Ix.fill v 2 2 5;
  Alcotest.(check int) "fill" 5 (St.Ix.get v 3)

let test_bitset () =
  let n = 77 in
  (* deliberately not a multiple of 8 *)
  let b = St.Bitset.create n in
  Alcotest.(check int) "length" n (St.Bitset.length b);
  for i = 0 to n - 1 do
    check_true "starts clear" (not (St.Bitset.get b i))
  done;
  List.iter (fun i -> St.Bitset.set b i) [ 0; 7; 8; 63; 64; n - 1 ];
  List.iter
    (fun i -> check_true (Printf.sprintf "bit %d set" i) (St.Bitset.get b i))
    [ 0; 7; 8; 63; 64; n - 1 ];
  check_true "neighbours untouched" (not (St.Bitset.get b 1));
  check_true "neighbours untouched" (not (St.Bitset.get b 62));
  St.Bitset.clear b 8;
  check_true "clear one bit" (not (St.Bitset.get b 8));
  check_true "clear leaves same byte" (St.Bitset.get b 7);
  St.Bitset.clear_all b;
  for i = 0 to n - 1 do
    check_true "clear_all" (not (St.Bitset.get b i))
  done

(* [bits] is the set itself, in the documented layout: bit i at byte
   i lsr 3, mask 1 lsl (i land 7). Classic's boundary scan reads and
   writes it raw. *)
let test_bitset_bits_layout () =
  let b = St.Bitset.create 20 in
  List.iter (St.Bitset.set b) [ 0; 9; 15; 19 ];
  let bits = St.Bitset.bits b in
  Alcotest.(check (list int)) "bytes" [ 0x01; 0x82; 0x08 ]
    (List.init (Bytes.length bits) (fun k -> Char.code (Bytes.get bits k)));
  Bytes.set bits 0 (Char.chr 0x21);
  check_true "a raw write is a set bit" (St.Bitset.get b 5);
  St.Bitset.clear_all b;
  check_true "shared, not copied" (Bytes.get bits 1 = '\000')

(* The layer's contract: reads and writes through the accessors do not
   allocate, even without flambda (the int32 box/unbox pair cancels in
   argument position). A boxing regression would cost 2+ words per
   element here; allow a few words of slack for the Gc.minor_words
   float results themselves. *)
let test_accessors_allocation_free () =
  let len = 4096 in
  let v = St.I32.create len in
  let b = St.Bitset.create len in
  for i = 0 to len - 1 do
    St.I32.set v i (i * 3)
  done;
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to len - 1 do
    sum := !sum + St.I32.unsafe_get v i;
    St.I32.unsafe_set v i !sum;
    if St.Bitset.unsafe_get b i then St.Bitset.unsafe_clear b i else St.Bitset.unsafe_set b i
  done;
  let after = Gc.minor_words () in
  check_true "loop ran" (!sum > 0);
  if after -. before > 64. then
    Alcotest.failf "storage accessors allocated %.0f minor words over %d iterations"
      (after -. before) len

let suites =
  [
    ( "graph.storage",
      [
        Alcotest.test_case "I32 basics" `Quick test_i32_basics;
        Alcotest.test_case "I32 ensure" `Quick test_i32_ensure;
        Alcotest.test_case "Ix basics" `Quick test_ix_basics;
        Alcotest.test_case "Bitset" `Quick test_bitset;
        Alcotest.test_case "Bitset.bits layout" `Quick test_bitset_bits_layout;
        Alcotest.test_case "accessors allocation-free" `Quick test_accessors_allocation_free;
      ] );
  ]
