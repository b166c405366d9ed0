(* Tests for xy_util: simulated clock, PRNG, sorted integer sets,
   content hashing. *)

module Clock = Xy_util.Clock
module Prng = Xy_util.Prng
module Sorted_ints = Xy_util.Sorted_ints
module Hashing = Xy_util.Hashing
module Parse = Xy_util.Parse

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_starts_at_zero () =
  check (Alcotest.float 0.) "initial time" 0. (Clock.now (Clock.create ()))

let test_clock_advance () =
  let clock = Clock.create () in
  Clock.advance clock 10.;
  Clock.advance clock 2.5;
  check (Alcotest.float 1e-9) "advanced" 12.5 (Clock.now clock)

let test_clock_advance_negative_rejected () =
  let clock = Clock.create () in
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative increment") (fun () ->
      Clock.advance clock (-1.))

let test_clock_set_monotonic () =
  let clock = Clock.create () in
  Clock.set clock 100.;
  check (Alcotest.float 0.) "set" 100. (Clock.now clock);
  Alcotest.check_raises "set backwards"
    (Invalid_argument "Clock.set: time in the past") (fun () ->
      Clock.set clock 50.)

let test_clock_constants () =
  checkb "hour" true (Clock.hour = 3600.);
  checkb "day" true (Clock.day = 24. *. 3600.);
  checkb "week" true (Clock.week = 7. *. Clock.day)

let test_clock_pp () =
  let s = Format.asprintf "%a" Clock.pp (Clock.day +. 3661.) in
  check Alcotest.string "format" "1d 01:01:01" s

let test_clock_pp_edge_cases () =
  let render t = Format.asprintf "%a" Clock.pp t in
  check Alcotest.string "zero" "0d 00:00:00" (render 0.);
  check Alcotest.string "sub-second flushes to zero" "0d 00:00:00" (render 0.999);
  check Alcotest.string "negative sub-second" "0d 00:00:00" (render (-0.25));
  check Alcotest.string "negative time carries one sign" "-1d 01:01:01"
    (render (-.(Clock.day +. 3661.)));
  check Alcotest.string "negative second" "-0d 00:00:01" (render (-1.));
  check Alcotest.string "nan" "nan" (render Float.nan);
  (* Huge values must not truncate into garbage. *)
  checkb "huge positive renders" true
    (String.length (render 1e30) > 0);
  checkb "huge negative is signed" true
    (String.length (render (-1e30)) > 1 && (render (-1e30)).[0] = '-')

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let seq_a = List.init 50 (fun _ -> Prng.int a 1000) in
  let seq_b = List.init 50 (fun _ -> Prng.int b 1000) in
  check Alcotest.(list int) "same seed, same stream" seq_a seq_b

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let seq_a = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let seq_b = List.init 50 (fun _ -> Prng.int b 1_000_000) in
  checkb "different seed, different stream" false (seq_a = seq_b)

let test_distinct_sorted_properties () =
  let prng = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    let bound = 50 + Prng.int prng 1000 in
    let count = 1 + Prng.int prng (min bound 40) in
    let draw = Prng.distinct_sorted prng ~bound ~count in
    Alcotest.(check int) "cardinality" count (Array.length draw);
    Array.iter (fun x -> checkb "in range" true (x >= 0 && x < bound)) draw;
    for i = 1 to Array.length draw - 1 do
      checkb "strictly increasing" true (draw.(i - 1) < draw.(i))
    done
  done

let test_distinct_sorted_full_range () =
  let prng = Prng.create ~seed:3 in
  let draw = Prng.distinct_sorted prng ~bound:10 ~count:10 in
  check Alcotest.(list int) "all values" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Array.to_list draw)

let test_distinct_sorted_count_too_large () =
  let prng = Prng.create ~seed:3 in
  Alcotest.check_raises "count > bound"
    (Invalid_argument "Prng.distinct_sorted: count > bound") (fun () ->
      ignore (Prng.distinct_sorted prng ~bound:5 ~count:6))

let test_zipf_range_and_skew () =
  let prng = Prng.create ~seed:11 in
  let n = 1000 in
  let counts = Array.make n 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let r = Prng.zipf prng ~n ~alpha:1.0 in
    checkb "in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 must be drawn far more often than rank 500. *)
  checkb "head heavier than tail" true (counts.(0) > 10 * max 1 counts.(500))

let test_exponential_positive_mean () =
  let prng = Prng.create ~seed:5 in
  let n = 10_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential prng ~mean:3. in
    checkb "non-negative" true (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  checkb "mean close to 3" true (mean > 2.7 && mean < 3.3)

let test_pick_and_shuffle () =
  let prng = Prng.create ~seed:9 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 20 do
    checkb "pick member" true (Array.mem (Prng.pick prng arr) arr)
  done;
  let copy = Array.copy arr in
  Prng.shuffle prng copy;
  Array.sort compare copy;
  check Alcotest.(array int) "shuffle is a permutation" arr copy;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick prng [||]))

let test_words () =
  let prng = Prng.create ~seed:13 in
  let w = Prng.word prng in
  checkb "word length" true (String.length w >= 3 && String.length w <= 10);
  let ws = Prng.words prng 5 in
  Alcotest.(check int) "five words" 5
    (List.length (String.split_on_char ' ' ws))

(* ------------------------------------------------------------------ *)
(* Sorted_ints *)

let si = Alcotest.testable Sorted_ints.pp Sorted_ints.equal

let test_of_list_sorts_dedups () =
  check si "sorted, deduped"
    (Sorted_ints.of_list [ 1; 2; 3 ])
    (Sorted_ints.of_list [ 3; 1; 2; 3; 1 ])

let test_of_list_empty () =
  checkb "empty" true (Sorted_ints.is_empty (Sorted_ints.of_list []))

let test_mem () =
  let s = Sorted_ints.of_list [ 2; 5; 9; 40; 100 ] in
  List.iter (fun x -> checkb "mem" true (Sorted_ints.mem s x)) [ 2; 5; 9; 40; 100 ];
  List.iter
    (fun x -> checkb "not mem" false (Sorted_ints.mem s x))
    [ 0; 1; 3; 41; 99; 101 ]

let test_subset () =
  let sub a b =
    Sorted_ints.subset (Sorted_ints.of_list a) (Sorted_ints.of_list b)
  in
  checkb "subset yes" true (sub [ 1; 3 ] [ 1; 2; 3 ]);
  checkb "equal sets" true (sub [ 1; 2 ] [ 1; 2 ]);
  checkb "empty subset" true (sub [] [ 1 ]);
  checkb "not subset" false (sub [ 1; 4 ] [ 1; 2; 3 ]);
  checkb "superset is not subset" false (sub [ 1; 2; 3 ] [ 1; 2 ])

let test_set_algebra () =
  let a = Sorted_ints.of_list [ 1; 3; 5; 7 ] in
  let b = Sorted_ints.of_list [ 3; 4; 5; 8 ] in
  check si "union" (Sorted_ints.of_list [ 1; 3; 4; 5; 7; 8 ]) (Sorted_ints.union a b);
  check si "inter" (Sorted_ints.of_list [ 3; 5 ]) (Sorted_ints.inter a b);
  check si "diff" (Sorted_ints.of_list [ 1; 7 ]) (Sorted_ints.diff a b)

let test_check_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Sorted_ints.check: not strictly increasing") (fun () ->
      Sorted_ints.check [| 1; 1 |])

(* qcheck: algebra laws *)
let int_set_gen = QCheck.(list_of_size Gen.(0 -- 30) (int_bound 100))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"union commutes" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.equal (Sorted_ints.union a b) (Sorted_ints.union b a));
    QCheck.Test.make ~name:"inter subset of both" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        let i = Sorted_ints.inter a b in
        Sorted_ints.subset i a && Sorted_ints.subset i b);
    QCheck.Test.make ~name:"diff disjoint from b" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.is_empty (Sorted_ints.inter (Sorted_ints.diff a b) b));
    QCheck.Test.make ~name:"union/diff/inter partition a" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.equal a
          (Sorted_ints.union (Sorted_ints.diff a b) (Sorted_ints.inter a b)));
    QCheck.Test.make ~name:"mem agrees with list membership" ~count:200
      QCheck.(pair int_set_gen (int_bound 100))
      (fun (l, x) ->
        let s = Sorted_ints.of_list l in
        Sorted_ints.mem s x = List.mem x l);
  ]

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_hash_stable () =
  check Alcotest.string "known vector" "af63dc4c8601ec8c"
    (Hashing.signature "a");
  check Alcotest.string "empty string" "cbf29ce484222325" (Hashing.signature "")

let test_hash_distinguishes () =
  checkb "different content" false
    (Hashing.signature "<a>1</a>" = Hashing.signature "<a>2</a>")

let test_combine_order_sensitive () =
  let h1 = Hashing.fnv1a64 "x" and h2 = Hashing.fnv1a64 "y" in
  checkb "combine not commutative" false
    (Hashing.combine h1 h2 = Hashing.combine h2 h1)

(* The optimised native-int FNV-1a must agree bit-for-bit with the
   straightforward Int64 reference on arbitrary bytes, also when the
   bytes are hashed in two parts. *)
let qcheck_fnv_fast_equals_boxed =
  QCheck.Test.make ~name:"fnv1a64 = fnv1a64_boxed" ~count:1000
    QCheck.(string_gen_of_size Gen.(0 -- 200) Gen.char)
    (fun s ->
      let boxed = Hashing.fnv1a64_boxed s in
      let k = String.length s / 3 in
      let first = String.sub s 0 k
      and rest = String.sub s k (String.length s - k) in
      Int64.equal (Hashing.fnv1a64 s) boxed
      && Int64.equal (Hashing.fnv1a64_from (Hashing.fnv1a64 first) rest) boxed)

(* ------------------------------------------------------------------ *)
(* Strict decimal parsing (durable-format headers) *)

let test_decimal_accepts () =
  let d = Alcotest.(option int) in
  check d "zero" (Some 0) (Parse.decimal_int "0");
  check d "plain" (Some 42) (Parse.decimal_int "42");
  check d "leading zeros" (Some 7) (Parse.decimal_int "007");
  check d "max_int" (Some max_int) (Parse.decimal_int (string_of_int max_int))

let test_decimal_rejects_leniencies () =
  let d = Alcotest.(option int) in
  (* everything [int_of_string_opt] would wave through *)
  check d "hex prefix" None (Parse.decimal_int "0x10");
  check d "octal prefix" None (Parse.decimal_int "0o17");
  check d "binary prefix" None (Parse.decimal_int "0b101");
  check d "underscore separator" None (Parse.decimal_int "1_0");
  check d "leading plus" None (Parse.decimal_int "+3");
  check d "negative" None (Parse.decimal_int "-1");
  check d "empty" None (Parse.decimal_int "");
  check d "spaces" None (Parse.decimal_int " 1");
  check d "trailing junk" None (Parse.decimal_int "12a")

let test_decimal_rejects_overflow () =
  let d = Alcotest.(option int) in
  (* max_int plus one: same digit count, must overflow cleanly *)
  let over =
    let s = string_of_int max_int in
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b - 1)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) + 1));
    Bytes.to_string b
  in
  check d "max_int + 1" None (Parse.decimal_int over);
  check d "way past" None (Parse.decimal_int "99999999999999999999")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "clock",
        [
          tc "starts at zero" test_clock_starts_at_zero;
          tc "advance" test_clock_advance;
          tc "negative advance rejected" test_clock_advance_negative_rejected;
          tc "set is monotonic" test_clock_set_monotonic;
          tc "constants" test_clock_constants;
          tc "pretty printing" test_clock_pp;
          tc "pretty printing edge cases" test_clock_pp_edge_cases;
        ] );
      ( "prng",
        [
          tc "deterministic" test_prng_deterministic;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "distinct_sorted properties" test_distinct_sorted_properties;
          tc "distinct_sorted full range" test_distinct_sorted_full_range;
          tc "distinct_sorted bound check" test_distinct_sorted_count_too_large;
          tc "zipf range and skew" test_zipf_range_and_skew;
          tc "exponential mean" test_exponential_positive_mean;
          tc "pick and shuffle" test_pick_and_shuffle;
          tc "words" test_words;
        ] );
      ( "sorted_ints",
        [
          tc "of_list sorts and dedups" test_of_list_sorts_dedups;
          tc "empty" test_of_list_empty;
          tc "mem" test_mem;
          tc "subset" test_subset;
          tc "algebra" test_set_algebra;
          tc "check rejects unsorted" test_check_rejects_unsorted;
        ] );
      ("sorted_ints.qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "hashing",
        [
          tc "stable known vectors" test_hash_stable;
          tc "distinguishes content" test_hash_distinguishes;
          tc "combine order-sensitive" test_combine_order_sensitive;
          QCheck_alcotest.to_alcotest qcheck_fnv_fast_equals_boxed;
        ] );
      ( "parse",
        [
          tc "decimal accepts" test_decimal_accepts;
          tc "decimal rejects leniencies" test_decimal_rejects_leniencies;
          tc "decimal rejects overflow" test_decimal_rejects_overflow;
        ] );
    ]
