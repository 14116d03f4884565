(* Unit and property tests for the prelude: integer helpers, deterministic
   hashing, statistics, and table rendering. *)

module Ints = Hextime_prelude.Ints
module Det_hash = Hextime_prelude.Det_hash
module Stats = Hextime_prelude.Stats
module Tabulate = Hextime_prelude.Tabulate

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_ceil_div () =
  check_int "exact" 4 (Ints.ceil_div 8 2);
  check_int "round up" 5 (Ints.ceil_div 9 2);
  check_int "zero numerator" 0 (Ints.ceil_div 0 7);
  check_int "one" 1 (Ints.ceil_div 1 7)

let test_round_up_down () =
  check_int "up exact" 32 (Ints.round_up 32 32);
  check_int "up" 64 (Ints.round_up 33 32);
  check_int "down" 32 (Ints.round_down 63 32);
  check_int "down exact" 64 (Ints.round_down 64 32);
  check_int "up from zero" 0 (Ints.round_up 0 8)

let test_clamp () =
  check_int "below" 2 (Ints.clamp ~lo:2 ~hi:9 0);
  check_int "above" 9 (Ints.clamp ~lo:2 ~hi:9 100);
  check_int "inside" 5 (Ints.clamp ~lo:2 ~hi:9 5)

let test_pow () =
  check_int "2^10" 1024 (Ints.pow 2 10);
  check_int "x^0" 1 (Ints.pow 7 0);
  check_int "1^n" 1 (Ints.pow 1 12)

let test_range () =
  Alcotest.(check (list int)) "simple" [ 1; 2; 3 ] (Ints.range 1 3);
  Alcotest.(check (list int)) "step" [ 2; 4; 6 ] (Ints.range ~step:2 2 6);
  Alcotest.(check (list int)) "empty" [] (Ints.range 3 1)

let test_sum_by () =
  check_int "sum" 6 (Ints.sum_by (fun x -> x) [ 1; 2; 3 ]);
  check_int "empty" 0 (Ints.sum_by (fun x -> x) [])

let prop_ceil_div =
  QCheck.Test.make ~name:"ceil_div is least q with q*b >= a" ~count:500
    QCheck.(pair (int_bound 100_000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Ints.ceil_div a b in
      (q * b) >= a && ((q - 1) * b) < a)

let prop_round_up =
  QCheck.Test.make ~name:"round_up is a multiple and minimal" ~count:500
    QCheck.(pair (int_bound 100_000) (int_range 1 512))
    (fun (a, m) ->
      let r = Ints.round_up a m in
      r mod m = 0 && r >= a && r - m < a)

let test_hash_deterministic () =
  let h1 = Det_hash.create "seed" |> fun h -> Det_hash.mix_int h 42 in
  let h2 = Det_hash.create "seed" |> fun h -> Det_hash.mix_int h 42 in
  Alcotest.(check int64)
    "same inputs, same digest" (Det_hash.to_int64 h1) (Det_hash.to_int64 h2)

let test_hash_sensitivity () =
  let base = Det_hash.create "seed" in
  let a = Det_hash.to_int64 (Det_hash.mix_int base 1) in
  let b = Det_hash.to_int64 (Det_hash.mix_int base 2) in
  Alcotest.(check bool) "different inputs differ" true (a <> b)

(* Digests of mix_string recorded before its loop was rewritten: every
   jitter seed is one, so a changed digest moves every measured time. *)
let test_hash_string_pinned () =
  let label = "heat2d:512x512xT128/tT16-tS12x128-thr256/yellow" in
  check_int "a 47-byte kernel label" 47 (String.length label);
  List.iter
    (fun (s, created, mixed) ->
      Alcotest.(check int64) (Printf.sprintf "create %S" s) created
        (Det_hash.to_int64 (Det_hash.create s));
      Alcotest.(check int64) (Printf.sprintf "mix_string %S" s) mixed
        (Det_hash.to_int64
           (Det_hash.mix_string (Det_hash.mix_int (Det_hash.create "") 0) s)))
    [
      ("", 8911345218238399542L, 7083096473277562592L);
      ("g", 2651433718857275051L, -3875349568291362600L);
      (label, -2920065458250889038L, 587568917418143197L);
      ("\x80\xff\x00\xc3\xa9", -1997322197078839L, -5871498497346967383L);
    ]

(* The simulator hashes a tile shape's label prefix once and folds each
   kernel label's tail after it, so a split fold must be mix_string for
   any seed, any bytes (0x80 and up included: QCheck's strings draw all
   256) and any split point, whether the tail is folded in place or as a
   string of its own. *)
let prop_fold_split_is_mix_string =
  QCheck.Test.make ~name:"fold prefix, then tail, finalise = mix_string"
    ~count:1000
    QCheck.(triple string string small_nat)
    (fun (seed, s, cut) ->
      let k = cut mod (String.length s + 1) in
      let h = Det_hash.create seed in
      let prefix = Det_hash.fold_bytes h (String.sub s 0 k) ~pos:0 in
      let tail = String.sub s k (String.length s - k) in
      let whole = Det_hash.to_int64 (Det_hash.mix_string h s) in
      Det_hash.to_int64 (Det_hash.finalise (Det_hash.fold_bytes prefix s ~pos:k))
      = whole
      && Det_hash.to_int64
           (Det_hash.finalise (Det_hash.fold_bytes prefix tail ~pos:0))
         = whole)

let prop_add_decimal =
  QCheck.Test.make ~name:"add_decimal writes string_of_int" ~count:1000
    QCheck.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ])
    (fun n ->
      let buf = Buffer.create 8 in
      Ints.add_decimal buf n;
      Buffer.contents buf = string_of_int n)

let prop_uniform_range =
  QCheck.Test.make ~name:"uniform in [0,1)" ~count:500 QCheck.int (fun i ->
      let u = Det_hash.uniform (Det_hash.mix_int (Det_hash.create "u") i) in
      u >= 0.0 && u < 1.0)

let prop_jitter_range =
  QCheck.Test.make ~name:"jitter within amplitude" ~count:500 QCheck.int
    (fun i ->
      let j =
        Det_hash.jitter
          (Det_hash.mix_int (Det_hash.create "j") i)
          ~amplitude:0.05
      in
      j >= 0.95 && j <= 1.05)

let test_uniform_spread () =
  (* crude avalanche check: mean of many uniforms is near 1/2 *)
  let n = 2000 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum :=
      !sum +. Det_hash.uniform (Det_hash.mix_int (Det_hash.create "spread") i)
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f close to 0.5" mean)
    true
    (abs_float (mean -. 0.5) < 0.03)

let test_mean_stddev () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "stddev simple" 1.0 (Stats.stddev [ 1.0; 3.0 ]);
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "median" 3.0 (Stats.percentile 50.0 xs);
  check_float "min" 1.0 (Stats.percentile 0.0 xs);
  check_float "max" 5.0 (Stats.percentile 100.0 xs);
  check_float "interpolated" 1.5 (Stats.percentile 12.5 xs)

let test_rmse () =
  check_float "perfect" 0.0 (Stats.rmse_relative [ (1.0, 1.0); (2.0, 2.0) ]);
  (* single pair with 10% error *)
  check_float "ten percent" 0.1 (Stats.rmse_relative [ (1.1, 1.0) ]);
  check_float "mare" 0.1 (Stats.mean_abs_relative_error [ (1.1, 1.0); (0.9, 1.0) ])

let test_pearson () =
  let pairs = List.init 10 (fun i -> (float_of_int i, float_of_int (2 * i))) in
  check_float "perfect correlation" 1.0 (Stats.pearson pairs);
  let anti = List.init 10 (fun i -> (float_of_int i, float_of_int (-i))) in
  check_float "perfect anticorrelation" (-1.0) (Stats.pearson anti)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples counted" 4 total

let prop_rmse_nonneg =
  QCheck.Test.make ~name:"rmse is non-negative" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (float_bound_exclusive 100.0) (float_range 0.1 100.0)))
    (fun pairs -> Stats.rmse_relative pairs >= 0.0)

let test_tabulate_render () =
  let t =
    Tabulate.create ~title:"T" [ ("a", Tabulate.Left); ("b", Tabulate.Right) ]
  in
  let t = Tabulate.add_row t [ "x"; "1" ] in
  let s = Tabulate.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool)
    "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| x | 1 |"))

let test_tabulate_arity () =
  let t = Tabulate.create [ ("a", Tabulate.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Tabulate.add_row: arity mismatch") (fun () ->
      ignore (Tabulate.add_row t [ "x"; "y" ]))

let test_cells () =
  Alcotest.(check string) "zero" "0" (Tabulate.float_cell 0.0);
  Alcotest.(check string) "plain" "1.5" (Tabulate.float_cell 1.5);
  Alcotest.(check string) "seconds ms" "1.500 ms" (Tabulate.seconds_cell 1.5e-3);
  Alcotest.(check string) "seconds ns" "2.000 ns" (Tabulate.seconds_cell 2e-9)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_ceil_div; prop_round_up; prop_uniform_range; prop_jitter_range;
      prop_rmse_nonneg; prop_add_decimal; prop_fold_split_is_mix_string ]

module Mj = Hextime_prelude.Minijson

let test_minijson_roundtrip () =
  let doc =
    Mj.Obj
      [
        ("schema", Mj.Str "hextime-bench-v1");
        ("pi", Mj.Num 3.14159265358979312);
        ("count", Mj.Num 850.0);
        ("ok", Mj.Bool true);
        ("nothing", Mj.Null);
        ("xs", Mj.List [ Mj.Num 1.0; Mj.Str "two\n\"quoted\""; Mj.Obj [] ]);
        ("empty", Mj.List []);
      ]
  in
  match Mj.parse (Mj.render doc) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "structurally equal" true (doc = doc');
      (* %.17g keeps every float bit-exact through the text form *)
      Alcotest.(check (float 0.0)) "float exact" 3.14159265358979312
        (Option.get (Option.bind (Mj.member "pi" doc') Mj.number))

let test_minijson_accessors () =
  let doc = Mj.Obj [ ("a", Mj.Num 2.0); ("b", Mj.Str "x") ] in
  Alcotest.(check (option (float 0.0))) "number" (Some 2.0)
    (Option.bind (Mj.member "a" doc) Mj.number);
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (Mj.member "b" doc) Mj.string);
  Alcotest.(check bool) "missing member" true (Mj.member "c" doc = None);
  Alcotest.(check bool) "wrong type" true
    (Option.bind (Mj.member "b" doc) Mj.number = None);
  Alcotest.(check bool) "member of non-object" true
    (Mj.member "a" (Mj.Num 1.0) = None)

let test_minijson_errors () =
  let bad s =
    match Mj.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "{";
  bad "{\"a\": }";
  bad "[1, 2,]";
  bad "\"unterminated";
  bad "{} trailing";
  bad "nul";
  (match Mj.parse "  [1, {\"k\": null}, false]  " with
  | Ok (Mj.List [ Mj.Num 1.0; Mj.Obj [ ("k", Mj.Null) ]; Mj.Bool false ]) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.failf "valid doc rejected: %s" e)

(* --- the codec against its frozen reference ----------------------------- *)

module Ref = Minijson_ref

(* [=] equates 0.0 with -0.0: numbers must agree to the bit *)
let rec same_value a b =
  match (a, b) with
  | Mj.Num x, Mj.Num y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Mj.List xs, Mj.List ys -> List.equal same_value xs ys
  | Mj.Obj xs, Mj.Obj ys ->
      List.equal
        (fun (k, x) (k', y) -> String.equal k k' && same_value x y)
        xs ys
  | (Mj.Null | Mj.Bool _ | Mj.Str _), _ -> a = b
  | _ -> false

let same_parse text =
  match (Mj.parse text, Ref.parse text) with
  | Ok x, Ok y -> same_value x y
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let pow2_53 = Float.of_int (1 lsl 53)

let edge_floats =
  [ 0.0; -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; pow2_53;
    pow2_53 +. 2.0; 5e-324; -5e-324; Float.max_float; Float.min_float;
    Float.nan; Float.infinity; Float.neg_infinity; 0.1; -2.5; 1e300 ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, map float_of_int (int_range (-1000) 1000));
        (2, map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53)));
        ( 3,
          map2
            (fun m e -> float_of_int m *. (10.0 ** float_of_int e))
            (int_range (-999_999) 999_999) (int_range (-25) 25) );
        (2, map Int64.float_of_bits ui64);
        (1, oneofl edge_floats);
      ])

let gen_char =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        (2, char_range ' ' '~');
        (1, map Char.chr (int_range 0 31));
        (1, oneofl [ '"'; '\\'; '/' ]);
        (1, map Char.chr (int_range 128 255));
      ])

let gen_string = QCheck.Gen.(string_size ~gen:gen_char (int_range 0 12))

let gen_doc =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let scalar =
             frequency
               [
                 (1, return Mj.Null);
                 (1, map (fun b -> Mj.Bool b) bool);
                 (4, map (fun f -> Mj.Num f) gen_float);
                 (3, map (fun s -> Mj.Str s) gen_string);
               ]
           in
           if depth = 0 then scalar
           else
             let sub g = list_size (int_range 0 4) g in
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Mj.List l) (sub (self (depth - 1))));
                 ( 1,
                   map
                     (fun l -> Mj.Obj l)
                     (sub (pair gen_string (self (depth - 1)))) );
               ]))

let arb_doc = QCheck.make ~print:Ref.render_compact gen_doc

let prop_render_matches_reference =
  QCheck.Test.make ~name:"minijson render = frozen reference" ~count:2000
    arb_doc (fun doc ->
      String.equal (Mj.render doc) (Ref.render doc)
      && String.equal (Mj.render_compact doc) (Ref.render_compact doc))

(* A rendered document, damaged: cut short, a byte overwritten, or a
   structural character inserted. *)
type mutation = Truncate of int | Flip of int * char | Insert of int * char

let mutate text m =
  let n = String.length text in
  match m with
  | Truncate i -> String.sub text 0 (i mod (n + 1))
  | Flip (i, c) when n > 0 ->
      String.mapi (fun j c' -> if j = i mod n then c else c') text
  | Flip _ -> text
  | Insert (i, c) ->
      let i = i mod (n + 1) in
      String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)

let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 10_000 in
    frequency
      [
        (1, map (fun i -> Truncate i) pos);
        (2, map2 (fun i b -> Flip (i, Char.chr b)) pos (int_bound 255));
        ( 3,
          map2
            (fun i c -> Insert (i, c))
            pos
            (oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '0'; 'e'; '-'; '.' ])
        );
      ])

let arb_damaged =
  QCheck.make
    ~print:(fun text -> Printf.sprintf "%S" text)
    QCheck.Gen.(
      map3
        (fun doc compact ms ->
          let text = if compact then Ref.render_compact doc else Ref.render doc in
          List.fold_left mutate text ms)
        gen_doc bool
        (list_size (int_range 0 3) gen_mutation))

let prop_parse_matches_reference =
  QCheck.Test.make ~name:"minijson parse = frozen reference" ~count:3000
    arb_damaged same_parse

(* number tokens straddle the integer fast path and float_of_string *)
let arb_number_token =
  QCheck.make
    ~print:(fun text -> Printf.sprintf "%S" text)
    QCheck.Gen.(
      map2
        (fun tok wrap -> if wrap then "[" ^ tok ^ "]" else tok)
        (string_size
           ~gen:
             (frequency
                [ (8, char_range '0' '9'); (1, oneofl [ '-'; '+'; '.'; 'e'; 'E' ]) ])
           (int_range 0 20))
        bool)

let prop_numbers_match_reference =
  QCheck.Test.make ~name:"minijson number tokens = frozen reference"
    ~count:3000 arb_number_token same_parse

let test_minijson_edge_cases () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "render_number %h" f)
        (Ref.render_number f) (Mj.render_number f))
    edge_floats;
  Alcotest.(check (list string)) "pinned numbers"
    [ "-0"; "999999999999999"; "-999999999999999"; "1000000000000000";
      "-1000000000000000"; "9007199254740992"; "4.9406564584124654e-324";
      "\"NaN\""; "\"Infinity\""; "\"-Infinity\"" ]
    (List.map Mj.render_number
       [ -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; pow2_53 +. 1.0;
         5e-324; Float.nan; Float.infinity; Float.neg_infinity ]);
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun s ->
      let doc = Mj.Obj [ (s, Mj.Str s) ] in
      Alcotest.(check string) (Printf.sprintf "render %S" s) (Ref.render doc)
        (Mj.render doc);
      Alcotest.(check string) (Printf.sprintf "render_compact %S" s)
        (Ref.render_compact doc) (Mj.render_compact doc))
    [ ""; "plain"; "\""; "\\"; "\x00\x01\x1f"; "a\"b\\c\nd\re\tf"; "\x80\xff";
      all_bytes ];
  Alcotest.(check string) "escapes pinned" "\"\\u0001\\u001f\\\"\\\\\\n\x80\""
    (Mj.render_compact (Mj.Str "\x01\x1f\"\\\n\x80"));
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" text) true
        (same_parse text))
    [ "\"\\u0041\""; "\"\\u00_41\""; "\"\\u00e9\""; "\"\\u12\""; "-0"; "[-0]";
      "007"; "-007"; "123456789012345"; "-123456789012345";
      "1234567890123456"; "-1234567890123456"; "9007199254740993"; "-";
      "1e5"; "1.5e"; "--1"; "+1"; ".5"; "1.0"; "0x10"; "[1,]"; "{\"a\" 1}";
      "\"abc"; "\"ab\\"; "tru"; "nul"; " "; "" ];
  (match Mj.parse "[-0, 007, \"\\u0041\"]" with
  | Ok (Mj.List [ Mj.Num z; Mj.Num seven; Mj.Str "A" ]) ->
      Alcotest.(check bool) "-0 keeps its sign" true (Float.sign_bit z);
      Alcotest.(check (float 0.0)) "007" 7.0 seven
  | Ok _ | Error _ -> Alcotest.fail "edge document misparsed")

let test_minijson_depth_cap () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check (result unit string)) "a 1 MiB frame of '['"
    (Error "minijson: nesting deeper than 256 at offset 256")
    (Result.map ignore (Mj.parse (String.make 1_048_576 '[')));
  Alcotest.(check bool) "64 deep parses" true
    (Result.is_ok (Mj.parse (nested 64)) && same_parse (nested 64));
  let objects k =
    String.concat "" (List.init k (fun _ -> "{\"a\":")) ^ "1"
    ^ String.make k '}'
  in
  Alcotest.(check bool) "64 deep objects parse" true
    (same_parse (objects 64));
  Alcotest.(check bool) "256 deep is the cap" true
    (Result.is_ok (Mj.parse (nested 256)));
  Alcotest.(check (result unit string)) "257 deep is past it"
    (Error "minijson: nesting deeper than 256 at offset 1280")
    (Result.map ignore (Mj.parse (objects 257)))

let suite =
  [
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "round_up/down" `Quick test_round_up_down;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "sum_by" `Quick test_sum_by;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
    Alcotest.test_case "mix_string digests pinned" `Quick test_hash_string_pinned;
    Alcotest.test_case "uniform spread" `Quick test_uniform_spread;
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "rmse" `Quick test_rmse;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "tabulate render" `Quick test_tabulate_render;
    Alcotest.test_case "tabulate arity" `Quick test_tabulate_arity;
    Alcotest.test_case "cells" `Quick test_cells;
    Alcotest.test_case "minijson roundtrip" `Quick test_minijson_roundtrip;
    Alcotest.test_case "minijson accessors" `Quick test_minijson_accessors;
    Alcotest.test_case "minijson errors" `Quick test_minijson_errors;
    Alcotest.test_case "minijson edge cases = reference" `Quick
      test_minijson_edge_cases;
    Alcotest.test_case "minijson nesting cap" `Quick test_minijson_depth_cap;
  ]
  @ qsuite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_render_matches_reference;
        prop_parse_matches_reference;
        prop_numbers_match_reference;
      ]
