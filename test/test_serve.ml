(* hexserve: the precomputed arg-min index, the wire protocol, and the
   advisor service.  The load-bearing properties: an index survives a
   save/load round-trip with bit-identical answers, the cold path returns
   exactly the exhaustive-sweep arg-min, and concurrent clients get
   deterministic answers. *)

module Serve = Hextime_serve
module Advisor = Serve.Advisor
module Index = Serve.Index
module Proto = Serve.Proto
module Server = Serve.Server
module Client = Serve.Client
module Access_log = Serve.Access_log
module Parsweep = Hextime_parsweep.Parsweep
module Gpu = Hextime_gpu
module S = Hextime_stencil.Stencil
module P = Hextime_stencil.Problem
module Config = Hextime_tiling.Config
module Attribution = Hextime_obs.Attribution
module Optimizer = Hextime_tileopt.Optimizer
module Model = Hextime_core.Model
module Minijson = Hextime_prelude.Minijson
module H = Hextime_harness

let fresh_path =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hextime-serve-%d-%d%s" (Unix.getpid ()) !counter suffix)

let config_equal (a : Config.t) (b : Config.t) =
  a.Config.t_t = b.Config.t_t && a.Config.t_s = b.Config.t_s
  && a.Config.threads = b.Config.threads

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let load_counted path =
  match Index.load ~path with Ok r -> r | Error m -> Alcotest.fail m

let load_exn path = fst (load_counted path)

let entry_of (e : H.Experiments.t) =
  match Advisor.solve e.H.Experiments.arch e.H.Experiments.problem with
  | Ok a ->
      Index.entry_of_answer e.H.Experiments.arch e.H.Experiments.problem a
  | Error msg -> Alcotest.failf "%s: %s" (H.Experiments.id e) msg

(* --- wire protocol ---------------------------------------------------------- *)

let test_proto_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let requests =
    [
      Proto.Ask
        { arch = "gtx980"; stencil = "heat2d"; space = [| 512; 512 |]; time = 128 };
      Proto.Stats;
      Proto.Shutdown;
    ]
  in
  List.iter (fun r -> Proto.write_frame a (Proto.request_to_json r)) requests;
  List.iter
    (fun r ->
      match Proto.read_frame b with
      | Ok (Some json) -> (
          match Proto.request_of_json json with
          | Ok r' ->
              Alcotest.(check bool) "request round-trips" true (r = r')
          | Error e -> Alcotest.fail e)
      | Ok None -> Alcotest.fail "unexpected end of stream"
      | Error e -> Alcotest.fail e)
    requests;
  (* a reply carrying a real index entry round-trips field-for-field,
     including the hexpulse extras (request id, server vitals) *)
  let entry = entry_of (List.hd (H.Experiments.all H.Experiments.Ci)) in
  let vitals =
    [ ("uptime_s", 12.25); ("index_entries", 3.0); ("requests_in_flight", 1.0) ]
  in
  let reply =
    Proto.Answer
      {
        source = Proto.Warm;
        entry;
        latency_us = 12.5;
        req_id = "r000042";
        server = vitals;
      }
  in
  Proto.write_frame a (Proto.reply_to_json reply);
  (match Proto.read_frame b with
  | Ok (Some json) -> (
      match Proto.reply_of_json json with
      | Ok (Proto.Answer { source; entry = e'; latency_us; req_id; server }) ->
          Alcotest.(check bool) "source" true (source = Proto.Warm);
          Alcotest.(check (float 0.0)) "latency" 12.5 latency_us;
          Alcotest.(check string) "req_id" "r000042" req_id;
          Alcotest.(check (list (pair string (float 0.0)))) "server vitals"
            vitals server;
          Alcotest.(check string) "key" entry.Index.e_key e'.Index.e_key;
          Alcotest.(check bool) "config" true
            (config_equal entry.Index.e_config e'.Index.e_config);
          Alcotest.(check (float 0.0)) "talg bit-identical" entry.Index.e_talg
            e'.Index.e_talg
      | Ok _ -> Alcotest.fail "reply decoded to the wrong arm"
      | Error e -> Alcotest.fail e)
  | Ok None -> Alcotest.fail "unexpected end of stream"
  | Error e -> Alcotest.fail e);
  (* the stats reply keeps its metrics and its vitals *)
  Proto.write_frame a
    (Proto.reply_to_json
       (Proto.Stats_reply
          { metrics = Minijson.Obj [ ("x", Minijson.Num 1.0) ]; server = vitals }));
  (match Proto.read_frame b with
  | Ok (Some json) -> (
      match Proto.reply_of_json json with
      | Ok (Proto.Stats_reply { metrics; server }) ->
          Alcotest.(check bool) "stats metrics kept" true
            (Minijson.member "x" metrics <> None);
          Alcotest.(check (list (pair string (float 0.0))))
            "stats vitals kept" vitals server
      | Ok _ -> Alcotest.fail "stats reply decoded to the wrong arm"
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "stats reply lost");
  (* closing the writer is a clean EOF on the reader, not an error *)
  Unix.close a;
  match Proto.read_frame b with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "phantom frame after close"
  | Error e -> Alcotest.failf "clean close misread as %s" e

(* --- frames on the wire ------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () -> f a b

let read_raw fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> Alcotest.failf "end of stream after %d of %d bytes" !off n
    | k -> off := !off + k
  done;
  Bytes.to_string b

let pending fd =
  match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

let test_frame_bytes () =
  with_socketpair @@ fun a b ->
  let json =
    Proto.request_to_json
      (Proto.Ask
         { arch = "gtx980"; stencil = "heat2d"; space = [| 512; 512 |]; time = 128 })
  in
  let payload = Minijson.render_compact json in
  let n = String.length payload in
  let header =
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  in
  Proto.write_frame a json;
  Alcotest.(check string) "big-endian length, then the compact payload"
    (header ^ payload) (read_raw b (4 + n));
  Alcotest.(check bool) "nothing after the frame" false (pending b)

(* Larger than the socket buffer: the writer blocks part-way and the
   partial-write loop must resume at the right offset. *)
let test_frame_larger_than_socket_buffer () =
  with_socketpair @@ fun a b ->
  let text =
    String.init 900_000 (fun i ->
        if i mod 97 = 96 then '\n' else Char.chr (32 + (i * 7 mod 95)))
  in
  let big = Proto.reply_to_json (Proto.Error_reply text) in
  Alcotest.(check bool) "frame exceeds the socket send buffer" true
    (String.length (Minijson.render_compact big)
    > Unix.getsockopt_int a Unix.SO_SNDBUF);
  (* a maximal frame of '[' is refused at the nesting cap, not recursed *)
  let deep =
    let n = Proto.max_frame in
    let f = Bytes.make (4 + n) '[' in
    Bytes.set_int32_be f 0 (Int32.of_int n);
    f
  in
  let reader =
    Domain.spawn (fun () ->
        let first = Proto.read_frame b in
        let second = Proto.read_frame b in
        (first, second, Proto.read_frame b))
  in
  Proto.write_frame a big;
  Proto.write_frame a (Proto.request_to_json Proto.Stats);
  let off = ref 0 in
  while !off < Bytes.length deep do
    off := !off + Unix.write a deep !off (Bytes.length deep - !off)
  done;
  let first, second, third = Domain.join reader in
  Alcotest.(check (result unit string)) "1 MiB of '[' refused at the cap"
    (Error "bad frame payload: minijson: nesting deeper than 256 at offset 256")
    (Result.map ignore third);
  (match first with
  | Ok (Some json) -> (
      match Proto.reply_of_json json with
      | Ok (Proto.Error_reply text') ->
          Alcotest.(check bool) "900 KB message byte-identical" true
            (String.equal text text')
      | Ok _ -> Alcotest.fail "large frame decoded to the wrong arm"
      | Error e -> Alcotest.fail e)
  | Ok None -> Alcotest.fail "end of stream instead of the large frame"
  | Error e -> Alcotest.fail e);
  match second with
  | Ok (Some json) ->
      Alcotest.(check bool) "next frame intact" true
        (Proto.request_of_json json = Ok Proto.Stats)
  | Ok None -> Alcotest.fail "end of stream instead of the next frame"
  | Error e -> Alcotest.fail e

let test_frame_over_max_rejected () =
  with_socketpair @@ fun a b ->
  (* the quotes make the payload one byte longer than the limit *)
  let json = Minijson.Str (String.make (Proto.max_frame - 1) 'x') in
  Alcotest.(check int) "payload is max_frame + 1 bytes" (Proto.max_frame + 1)
    (String.length (Minijson.render_compact json));
  Alcotest.check_raises "over max_frame"
    (Invalid_argument "Proto.write_frame: frame too large") (fun () ->
      Proto.write_frame a json);
  Alcotest.(check bool) "nothing written" false (pending b)

(* --- spliced answers -------------------------------------------------------- *)

let expected_frame payload =
  let n = String.length payload in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ payload

(* The bytes one [write_answer] puts on the wire, read back whole. *)
let spliced_frame (a : Proto.answer) ~fields =
  with_socketpair @@ fun w r ->
  Proto.write_answer w a ~fields;
  let header = read_raw r 4 in
  let n = Int32.to_int (String.get_int32_be header 0) in
  let frame = header ^ read_raw r n in
  Alcotest.(check bool) "nothing after the frame" false (pending r);
  frame

let reference_frame (a : Proto.answer) =
  expected_frame
    (Minijson.render_compact (Proto.reply_to_json (Proto.Answer a)))

(* What a stored entry's fields can hold: every number class the renderer
   branches on, and strings that need escaping. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
            Float.min_float; -5e-324; 1e15; -1e15; 2. ** 53.; 1e300 ];
        map
          (fun m -> Int64.float_of_bits (Int64.of_int m))
          (int_range 1 0xFFFFF);
        map (fun k -> float_of_int k *. 1e15) (int_range (-1000) 1000);
        map float_of_int int;
        map Int64.float_of_bits ui64;
        float_range 0.0 1e-3;
      ])

let gen_text = QCheck.Gen.(string_size ~gen:char (int_range 0 12))

let gen_answer =
  QCheck.Gen.(
    let* rank = int_range 1 3 in
    let* t_t = map (fun k -> 2 * k) (int_range 1 40) in
    let* t_s =
      array_repeat rank (int_range 1 512) >|= fun t_s ->
      if rank > 1 then t_s.(rank - 1) <- 32 * (1 + (t_s.(rank - 1) mod 8));
      t_s
    in
    let* threads = array_size (int_range 1 rank) (int_range 1 1024) in
    let* space = array_repeat rank (int_range 1 100_000) in
    let* time = int_range 1 100_000 in
    let* key = gen_text and* arch = gen_text and* stencil = gen_text in
    let* talg = gen_float in
    let* c = array_repeat 6 gen_float in
    let* source = oneofl [ Proto.Warm; Proto.Cold ] in
    let* latency_us = gen_float in
    let* req_id = oneof [ return ""; return "r000001"; gen_text ] in
    let* server = list_size (int_range 0 4) (pair gen_text gen_float) in
    let entry =
      {
        Index.e_key = key;
        e_arch = arch;
        e_stencil = stencil;
        e_space = space;
        e_time = time;
        e_config = Config.make_exn ~t_t ~t_s ~threads;
        e_talg = talg;
        e_components =
          {
            Attribution.compute = c.(0);
            global_mem = c.(1);
            shared_mem = c.(2);
            sync = c.(3);
            launch = c.(4);
            jitter = c.(5);
          };
      }
    in
    return { Proto.source; entry; latency_us; req_id; server })

(* The writer every served answer goes through must put on the wire what
   the reference tree encoding does, given the fields the index stored. *)
let prop_answer_splice_equals_tree =
  QCheck.Test.make ~name:"proto answer splice = tree bytes" ~count:300
    (QCheck.make
       ~print:(fun a ->
         Minijson.render_compact (Proto.reply_to_json (Proto.Answer a)))
       gen_answer)
    (fun (a : Proto.answer) ->
      let index = Index.create () in
      Index.add index a.Proto.entry;
      match Index.find_rendered index a.Proto.entry.Index.e_key with
      | None -> false
      | Some (_, fields) ->
          String.equal (reference_frame a) (spliced_frame a ~fields))

(* Re-adding under the same key replaces the stored bytes with the new
   entry's: the server never splices a stale rendering. *)
let test_answer_splice_after_readd () =
  let e = entry_of (List.hd (H.Experiments.all H.Experiments.Ci)) in
  let doubled = { e with Index.e_talg = 2.0 *. e.Index.e_talg } in
  let index = Index.create () in
  Index.add index e;
  Index.add index doubled;
  Alcotest.(check int) "one entry per key" 1 (Index.size index);
  match Index.find_rendered index e.Index.e_key with
  | None -> Alcotest.fail "re-added entry lost"
  | Some (entry, fields) ->
      Alcotest.(check (float 0.0)) "the new entry" doubled.Index.e_talg
        entry.Index.e_talg;
      let a =
        {
          Proto.source = Proto.Warm;
          entry;
          latency_us = 3.25;
          req_id = "r000009";
          server = [ ("uptime_s", 1.5) ];
        }
      in
      let served = spliced_frame a ~fields in
      Alcotest.(check string) "served bytes are the new entry's"
        (reference_frame a) served;
      Alcotest.(check bool) "not the old entry's" false
        (String.equal served (reference_frame { a with entry = e }))

(* --- index round-trip ------------------------------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_entries what (expected : Index.t) (loaded : Index.t) =
  Alcotest.(check int) (what ^ ": loaded size") (Index.size expected)
    (Index.size loaded);
  List.iter
    (fun (e : Index.entry) ->
      match Index.find loaded e.Index.e_key with
      | None -> Alcotest.failf "%s: entry %s lost" what e.Index.e_key
      | Some e' ->
          let c = e.Index.e_components and c' = e'.Index.e_components in
          Alcotest.(check bool) (what ^ ": problem identical") true
            (e.Index.e_arch = e'.Index.e_arch
            && e.Index.e_stencil = e'.Index.e_stencil
            && e.Index.e_space = e'.Index.e_space
            && e.Index.e_time = e'.Index.e_time);
          Alcotest.(check bool) (what ^ ": config identical") true
            (config_equal e.Index.e_config e'.Index.e_config);
          Alcotest.(check bool) (what ^ ": talg bit-identical") true
            (bits_equal e.Index.e_talg e'.Index.e_talg);
          Alcotest.(check bool) (what ^ ": attribution bit-identical") true
            (List.for_all2 bits_equal
               Attribution.
                 [ c.compute; c.global_mem; c.shared_mem; c.sync; c.launch;
                   c.jitter ]
               Attribution.
                 [ c'.compute; c'.global_mem; c'.shared_mem; c'.sync;
                   c'.launch; c'.jitter ]))
    (Index.entries expected)

let named arch stencil space time =
  {
    H.Experiments.arch = Gpu.Arch.find arch;
    problem = P.make (S.find stencil) ~space ~time;
  }

let entry_line e = Minijson.render_compact (Index.entry_to_json e) ^ "\n"

let header_line ~schema ~code_version =
  Minijson.render_compact
    (Minijson.Obj
       [
         ("schema", Minijson.Str schema);
         ("code_version", Minijson.Str code_version);
       ])
  ^ "\n"

let current_header =
  header_line ~schema:Index.schema ~code_version:Advisor.code_version

let save_exn index path =
  match Index.save index ~path with Ok () -> () | Error m -> Alcotest.fail m

let append_exn index path entries =
  match Index.append index ~path entries with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* The file [save] writes is the header and each entry's compact JSON,
   one line each, sorted by key; the lines [append] adds are the same
   bytes.  Both reload every entry bit for bit (ranks 1-3), and a key's
   later line wins. *)
let test_index_roundtrip () =
  let experiments = H.Experiments.all H.Experiments.Ci in
  let index = Index.create () in
  List.iter (fun e -> Index.add index (entry_of e)) experiments;
  Alcotest.(check int) "one entry per experiment" (List.length experiments)
    (Index.size index);
  Index.add index (entry_of (named "gtx980" "jacobi1d" [| 4096 |] 512));
  let path = fresh_path ".json" in
  save_exn index path;
  Alcotest.(check string) "save: the header, then one line per entry by key"
    (current_header
    ^ String.concat "" (List.map entry_line (Index.entries index)))
    (read_file path);
  let loaded, r = load_counted path in
  Sys.remove path;
  check_same_entries "save" index loaded;
  Alcotest.(check (pair int int)) "save: every line replayed, none torn"
    (Index.size index, 0)
    (r.Index.entry_lines, r.Index.torn_lines);
  let first, rest =
    List.partition
      (fun (e : Index.entry) -> Array.length e.Index.e_space <> 2)
      (Index.entries index)
  in
  Alcotest.(check bool) "ranks 1-3 appended" true
    (List.exists (fun (e : Index.entry) -> Array.length e.Index.e_space = 1)
       first
    && List.exists (fun (e : Index.entry) -> Array.length e.Index.e_space = 3)
         first
    && rest <> []);
  let path = fresh_path ".json" in
  List.iter (append_exn index path) [ first; rest ];
  Alcotest.(check string) "append: a header, then each entry's compact JSON"
    (current_header ^ String.concat "" (List.map entry_line (first @ rest)))
    (read_file path);
  check_same_entries "append" index (load_exn path);
  (* the same key appended again with another answer: the later line wins *)
  let e0 = List.hd (Index.entries index) in
  let later = { e0 with Index.e_talg = e0.Index.e_talg *. 2.0 } in
  Index.add index later;
  append_exn index path [ later ];
  let reloaded, r = load_counted path in
  check_same_entries "a later line" index reloaded;
  Alcotest.(check int) "every line replayed" (Index.size index + 1)
    r.Index.entry_lines;
  Sys.remove path

(* A file whose header names another code version, or another schema,
   does not load, whatever entry lines follow it. *)
let test_index_rejects_stale_code_version () =
  let line =
    entry_line (entry_of (List.hd (H.Experiments.all H.Experiments.Ci)))
  in
  List.iter
    (fun (header, needle) ->
      let path = fresh_path ".json" in
      write_file path (header ^ line);
      (match Index.load ~path with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %S" msg needle)
            true
            (Test_util.contains msg needle)
      | Ok _ -> Alcotest.failf "a %s header loaded" needle);
      Sys.remove path)
    [
      ( header_line ~schema:Index.schema ~code_version:"hextime-serve-v0",
        "hextime-serve-v0" );
      ( header_line ~schema:"hextime-serve-index-v1"
          ~code_version:Advisor.code_version,
        "hextime-serve-index-v1" );
    ]

(* --- request keys and ids --------------------------------------------------- *)

(* Saved indexes are keyed by these exact bytes: a key that drifted would
   silently turn every indexed answer into a cold miss.  Recorded before
   [request_key] stopped formatting through Printf. *)
let test_request_keys_and_ids_pinned () =
  let key (e : H.Experiments.t) =
    Advisor.request_key e.H.Experiments.arch e.H.Experiments.problem
  in
  let ci = H.Experiments.all H.Experiments.Ci in
  let paper = H.Experiments.all H.Experiments.Paper in
  List.iter
    (fun (what, e, expected) -> Alcotest.(check string) what expected (key e))
    [
      ("first CI experiment", List.nth ci 0,
       "ask|hextime-serve-v2|1978d800651e6d0c");
      ("second CI experiment (leading zero)", List.nth ci 1,
       "ask|hextime-serve-v2|01fff9577aaf1295");
      ("first paper experiment", List.nth paper 0,
       "ask|hextime-serve-v2|838ebee81f130951");
      ("last paper experiment", List.nth paper 127,
       "ask|hextime-serve-v2|576a7b335cb272d6");
    ];
  let module D = Hextime_prelude.Det_hash in
  Alcotest.(check string) "all 140 CI and paper keys"
    "21f9f670fce04c84"
    (Printf.sprintf "%016Lx"
       (D.to_int64
          (List.fold_left D.mix_string (D.create "pinned-request-keys")
             (List.map key (ci @ paper)))));
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (Printf.sprintf "r%06d" n)
        (Server.format_req_id n))
    [ 0; 1; 9; 10; 99_999; 100_000; 999_999; 1_000_000; 12_345_678; max_int ];
  Alcotest.(check string) "past six digits" "r1000000"
    (Server.format_req_id 1_000_000)

(* --- cold path: exact exhaustive arg-min ------------------------------------ *)

(* The advisor must answer with the configuration the exhaustive model
   sweep picks — same tiles, bit-identical predicted Talg.  This is the
   guarantee that a cold miss served live agrees with `hextime tune` and
   with `ask --check`. *)
let check_cold_path_is_exhaustive_argmin (experiments : H.Experiments.t list)
    =
  List.iter
    (fun (e : H.Experiments.t) ->
      let id = H.Experiments.id e in
      let arch = e.H.Experiments.arch in
      let problem = e.H.Experiments.problem in
      let params = H.Microbench.params arch in
      let citer = H.Microbench.citer arch problem.P.stencil in
      let space_eval = Optimizer.evaluate_space params ~citer problem in
      if space_eval = [] then Alcotest.failf "%s: empty feasible space" id;
      let best = Optimizer.best space_eval in
      let expected =
        match Advisor.config_of_shape best.Optimizer.shape with
        | Ok c -> c
        | Error m -> Alcotest.failf "%s: %s" id m
      in
      match Advisor.solve arch problem with
      | Error msg -> Alcotest.failf "%s: %s" id msg
      | Ok a ->
          Alcotest.(check bool)
            (id ^ ": config is the exhaustive arg-min")
            true
            (config_equal expected a.Advisor.a_config);
          Alcotest.(check (float 0.0))
            (id ^ ": Talg bit-exact")
            best.Optimizer.prediction.Model.talg a.Advisor.a_talg)
    experiments

let test_cold_path_matches_exhaustive_argmin () =
  let experiments = H.Experiments.all H.Experiments.Ci in
  Alcotest.(check int) "accuracy-baseline experiment count" 12
    (List.length experiments);
  check_cold_path_is_exhaustive_argmin experiments

(* Beyond the CI grid: the whole paper-scale grid, whose problems have
   near-optimal shapes off the lattice and exact Talg ties between
   shapes, plus two problems CI asks cold with `ask --check`. *)
let test_cold_path_matches_exhaustive_argmin_paper () =
  let experiments = H.Experiments.all H.Experiments.Paper in
  Alcotest.(check int) "paper-scale experiment count" 128
    (List.length experiments);
  check_cold_path_is_exhaustive_argmin
    (named "gtx980" "laplacian3d" [| 88; 112; 104 |] 36
    :: named "titanx" "gradient2d" [| 544; 512 |] 112
    :: experiments)

(* --- the server ------------------------------------------------------------- *)

let connect socket_path =
  match Client.connect ~attempts:200 ~socket_path () with
  | Ok fd -> fd
  | Error m -> Alcotest.fail m

let ask fd (e : H.Experiments.t) =
  Client.ask fd
    ~arch:e.H.Experiments.arch.Gpu.Arch.name
    ~stencil:e.H.Experiments.problem.P.stencil.S.name
    ~space:e.H.Experiments.problem.P.space
    ~time:e.H.Experiments.problem.P.time

(* The files in [path]'s directory named [path] plus a suffix. *)
let beside path =
  let prefix = Filename.basename path ^ "." in
  List.filter
    (String.starts_with ~prefix)
    (Array.to_list (Sys.readdir (Filename.dirname path)))

let test_serve_cold_warm_writeback_and_concurrency () =
  let socket_path = fresh_path ".sock" in
  let index_path = fresh_path ".json" in
  let experiments = H.Experiments.all H.Experiments.Ci in
  let e0 = List.hd experiments in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~index_path ~exec:Parsweep.serial ~socket_path ())
  in
  (* cold first — the server starts with no index file *)
  let fd = connect socket_path in
  let cold_entry =
    match ask fd e0 with
    | Ok { Proto.source = Proto.Cold; entry; req_id; server; _ } ->
        Alcotest.(check string) "a fresh server's first request id"
          "r000001" req_id;
        Alcotest.(check bool) "answers carry server vitals" true
          (List.mem_assoc "uptime_s" server
          && List.mem_assoc "index_entries" server
          && List.mem_assoc "requests_in_flight" server);
        entry
    | Ok { Proto.source = Proto.Warm; _ } ->
        Alcotest.fail "first ask answered warm from an empty index"
    | Error msg -> Alcotest.failf "first ask failed: %s" msg
  in
  (* the write-back reached the disk before the reply did *)
  Alcotest.(check bool) "the cold answer loads before shutdown" true
    (Index.find (load_exn index_path) cold_entry.Index.e_key <> None);
  (* same connection, same question: warm now, same answer *)
  (match ask fd e0 with
  | Ok { Proto.source = Proto.Warm; entry; req_id; server; _ } ->
      Alcotest.(check string) "the second request id" "r000002" req_id;
      Alcotest.(check bool) "warm answer identical to the cold one" true
        (config_equal cold_entry.Index.e_config entry.Index.e_config
        && cold_entry.Index.e_talg = entry.Index.e_talg);
      Alcotest.(check bool) "index_entries vital counts the write-back" true
        (List.assoc "index_entries" server >= 1.0)
  | Ok { Proto.source = Proto.Cold; _ } ->
      Alcotest.fail "repeat ask missed the index"
  | Error msg -> Alcotest.failf "repeat ask failed: %s" msg);
  (* a malformed ask is an error reply, not a dead server *)
  (match
     Client.ask fd ~arch:"gtx980" ~stencil:"no-such-stencil"
       ~space:[| 64; 64 |] ~time:8
   with
  | Error msg ->
      Alcotest.(check bool) "error names the unknown stencil" true
        (Test_util.contains msg "no-such-stencil")
  | Ok _ -> Alcotest.fail "unknown stencil answered");
  Client.close fd;
  (* concurrent clients, one per experiment: answers must be deterministic
     — every client gets exactly what the in-process advisor computes *)
  let clients =
    List.map
      (fun e ->
        Domain.spawn (fun () ->
            let fd = connect socket_path in
            let r = ask fd e in
            Client.close fd;
            r))
      experiments
  in
  let replies = List.map Domain.join clients in
  List.iter2
    (fun e reply ->
      let expected = entry_of e in
      match reply with
      | Ok { Proto.entry; _ } ->
          Alcotest.(check bool)
            (H.Experiments.id e ^ ": served = in-process advisor")
            true
            (config_equal expected.Index.e_config entry.Index.e_config
            && expected.Index.e_talg = entry.Index.e_talg)
      | Error msg -> Alcotest.failf "%s: %s" (H.Experiments.id e) msg)
    experiments replies;
  (* shutdown, then the write-back index must hold every asked problem *)
  let fd = connect socket_path in
  (match Client.shutdown fd with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Client.close fd;
  let summary = Domain.join srv in
  Alcotest.(check bool) "server saw warm hits" true
    (summary.Server.warm_hits >= 1);
  Alcotest.(check bool) "server saw cold misses" true
    (summary.Server.cold_misses >= 1);
  let written = load_exn index_path in
  Alcotest.(check int) "write-back persisted every distinct problem"
    (List.length experiments) (Index.size written);
  Alcotest.(check (list string)) "nothing sits beside the index file" []
    (beside index_path);
  (* a fresh server over the written index answers warm immediately *)
  let srv2 =
    Domain.spawn (fun () ->
        Server.run ~index_path ~exec:Parsweep.serial ~max_requests:1
          ~socket_path ())
  in
  let fd = connect socket_path in
  (match ask fd e0 with
  | Ok { Proto.source = Proto.Warm; entry; _ } ->
      Alcotest.(check bool) "reloaded answer identical" true
        (config_equal cold_entry.Index.e_config entry.Index.e_config)
  | Ok { Proto.source = Proto.Cold; _ } ->
      Alcotest.fail "persisted index not used"
  | Error msg -> Alcotest.failf "ask against reloaded index failed: %s" msg);
  Client.close fd;
  let summary2 = Domain.join srv2 in
  Sys.remove index_path;
  Alcotest.(check int) "second server answered warm" 1
    summary2.Server.warm_hits

(* --- hexpulse: scrape endpoint, access log, drift monitor ------------------- *)

module Metrics = Hextime_obs.Metrics
module Ledger = Hextime_obs.Ledger

(* The stats frame — the one way to read a live server's metrics — passes
   the scrape gate's rules with every name metrics-verify requires, and
   the p50 it carries for [serve.warm_seconds] equals [Metrics.quantile]
   over the registry's own warm histogram, bit for bit: the server runs
   in a domain of this process, so both sides read the same registry. *)
let test_stats_frame_quantile_roundtrip () =
  let socket_path = fresh_path ".sock" in
  let e0 = List.hd (H.Experiments.all H.Experiments.Ci) in
  let srv =
    Domain.spawn (fun () -> Server.run ~exec:Parsweep.serial ~socket_path ())
  in
  let fd = connect socket_path in
  (match ask fd e0 with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "cold ask failed: %s" m);
  for _ = 1 to 4 do
    match ask fd e0 with
    | Ok { Proto.source = Proto.Warm; _ } -> ()
    | Ok _ -> Alcotest.fail "repeat ask missed the index"
    | Error m -> Alcotest.failf "warm ask failed: %s" m
  done;
  let metrics, vitals =
    match Client.stats fd with Ok r -> r | Error m -> Alcotest.fail m
  in
  (match Client.shutdown fd with Ok () -> () | Error m -> Alcotest.fail m);
  Client.close fd;
  let (_ : Server.summary) = Domain.join srv in
  Alcotest.(check bool) "vitals ride along" true
    (List.mem_assoc "uptime_s" vitals);
  let require =
    [
      "serve.requests";
      "serve.warm_hits";
      "serve.cold_misses";
      "serve.errors";
      "serve.warm_seconds";
      "serve.cold_seconds";
      "serve.uptime_s";
      "serve.index_entries";
      "serve.drift_alarm";
    ]
  in
  (match
     Metrics.check_json ~require ~expect:[ ("serve.drift_alarm", 0.0) ] metrics
   with
  | Ok n ->
      Alcotest.(check bool) "non-trivial snapshot" true
        (n >= List.length require)
  | Error m -> Alcotest.fail m);
  (* latency is read from the serving histograms and the drift alarm from
     serve.drift_alarm: no slo.* window or alert.* gauge repeats either *)
  List.iter
    (fun family ->
      match Minijson.member family metrics with
      | Some (Minijson.Obj fields) ->
          List.iter
            (fun (name, _) ->
              Alcotest.(check bool) (name ^ " is not slo.* or alert.*") false
                (String.starts_with ~prefix:"slo." name
                || String.starts_with ~prefix:"alert." name))
            fields
      | _ -> Alcotest.failf "no %s object in the stats frame" family)
    [ "counters"; "gauges"; "histograms" ];
  (* the round-trip: the frame's p50 == quantile over the same histogram *)
  let scraped =
    match
      Option.bind (Minijson.member "histograms" metrics) (fun hs ->
          Option.bind (Minijson.member "serve.warm_seconds" hs) (fun h ->
              Option.bind (Minijson.member "p50" h) Minijson.number))
    with
    | Some v -> v
    | None -> Alcotest.fail "no serve.warm_seconds p50 in the stats frame"
  in
  let hist =
    match
      List.assoc_opt "serve.warm_seconds"
        (Metrics.snapshot ()).Metrics.snap_histograms
    with
    | Some hs -> hs
    | None -> Alcotest.fail "warm histogram missing from the registry"
  in
  Alcotest.(check (float 0.0))
    "frame p50 == Metrics.quantile (exact: %.17g round-trips)"
    (Metrics.quantile hist 0.5) scraped;
  Alcotest.(check bool) "drift alarm gauge clean" true
    (List.assoc_opt "serve.drift_alarm"
       (Metrics.snapshot ()).Metrics.snap_gauges
    = Some 0.0)

let test_access_log_and_slow_attribution () =
  let socket_path = fresh_path ".sock" in
  let log_path = fresh_path ".jsonl" in
  let e0 = List.hd (H.Experiments.all H.Experiments.Ci) in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~exec:Parsweep.serial ~access_log_path:log_path
          ~slow_us:0.0 ~socket_path ())
  in
  let fd = connect socket_path in
  (match ask fd e0 with
  | Ok { Proto.source = Proto.Cold; _ } -> ()
  | Ok _ -> Alcotest.fail "first ask should be cold"
  | Error m -> Alcotest.fail m);
  (match ask fd e0 with
  | Ok { Proto.source = Proto.Warm; _ } -> ()
  | Ok _ -> Alcotest.fail "second ask should be warm"
  | Error m -> Alcotest.fail m);
  (match
     Client.ask fd ~arch:"gtx980" ~stencil:"no-such-stencil"
       ~space:[| 64; 64 |] ~time:8
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown stencil answered");
  (match Client.shutdown fd with Ok () -> () | Error m -> Alcotest.fail m);
  Client.close fd;
  let (_ : Server.summary) = Domain.join srv in
  let ic = open_in log_path in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let records =
    let ls = lines [] in
    close_in ic;
    List.map
      (fun l ->
        match Minijson.parse l with
        | Ok j -> j
        | Error m -> Alcotest.failf "unparseable access-log line %S: %s" l m)
      ls
  in
  Sys.remove log_path;
  Alcotest.(check int) "one record per answered request" 3
    (List.length records);
  let source_of r =
    match Minijson.member "source" r with
    | Some (Minijson.Str s) -> s
    | _ -> Alcotest.fail "access-log record without a source"
  in
  List.iter
    (fun r ->
      (match Minijson.member "req_id" r with
      | Some (Minijson.Str id) ->
          Alcotest.(check bool) "req_id non-empty" true (id <> "")
      | _ -> Alcotest.fail "access-log record without a req_id");
      match Minijson.member "latency_us" r with
      | Some (Minijson.Num _) -> ()
      | _ -> Alcotest.fail "access-log record without a latency")
    records;
  Alcotest.(check (list string)) "sources in request order"
    [ "cold"; "warm"; "error" ] (List.map source_of records);
  (* slow_us = 0 makes every cold solve a slow query: the cold record must
     carry the flag and the Section-5 attribution dump *)
  let cold = List.hd records in
  Alcotest.(check bool) "cold record flagged slow" true
    (Minijson.member "slow" cold = Some (Minijson.Bool true));
  (match Minijson.member "attribution" cold with
  | Some (Minijson.Obj fields) ->
      Alcotest.(check bool) "attribution names compute" true
        (List.mem_assoc "compute" fields)
  | _ -> Alcotest.fail "slow cold record without attribution");
  let error_r = List.nth records 2 in
  (match Minijson.member "error" error_r with
  | Some (Minijson.Str msg) ->
      Alcotest.(check bool) "error record names the stencil" true
        (Test_util.contains msg "no-such-stencil")
  | _ -> Alcotest.fail "error record without an error field");
  (* one record byte for byte: fractions with leading zeros, strings that
     need escaping *)
  let pinned_path = fresh_path ".jsonl" in
  (match Access_log.open_ ~path:pinned_path with
  | Error m -> Alcotest.fail m
  | Ok alog ->
      Access_log.log alog ~ts:1700000000.000042 ~req_id:"r000007"
        ~key:"k\"1" ~source:"error" ~latency_us:12.000305
        ~error:"unknown stencil \"x\"\n\x01" ();
      Access_log.close alog);
  let ic = open_in_bin pinned_path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove pinned_path;
  Alcotest.(check string) "pinned record"
    ({|{"ts":1700000000.000042,"req_id":"r000007","key":"k\"1","source":"error","latency_us":12.000305,"error":"unknown stencil \"x\"\n\u0001"}|}
    ^ "\n")
    text

(* The drift monitor.  A clean index audits in-band and the alarm stays
   down; an index whose served Talg was perturbed away from the model's
   prediction trips the alarm, counts out-of-band audits and writes audit
   ledger records. *)
let run_audited ~index_path ~ledger_path ~asks =
  let socket_path = fresh_path ".sock" in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~index_path ~exec:Parsweep.serial ~audit_rate:1
          ~ledger_path ~socket_path ())
  in
  let fd = connect socket_path in
  List.iter
    (fun e ->
      match ask fd e with
      | Ok { Proto.source = Proto.Warm; _ } -> ()
      | Ok _ -> Alcotest.fail "audited ask missed the prebuilt index"
      | Error m -> Alcotest.failf "audited ask failed: %s" m)
    asks;
  (match Client.shutdown fd with Ok () -> () | Error m -> Alcotest.fail m);
  Client.close fd;
  Domain.join srv

let audit_records ~ledger_path =
  match Ledger.load ~path:ledger_path with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      Alcotest.(check int) "ledger intact" 0 loaded.Ledger.corrupt_lines;
      Ledger.filter ~kind:"audit" loaded.Ledger.entries

let test_drift_monitor_clean_and_injected () =
  let experiments = H.Experiments.all H.Experiments.Ci in
  let e0 = List.hd experiments in
  let entry = entry_of e0 in
  (* clean: the true arg-min entry audits in-band, the alarm stays down *)
  let index_path = fresh_path ".json" in
  let ledger_path = fresh_path ".jsonl" in
  let index = Index.create () in
  Index.add index entry;
  (match Index.save index ~path:index_path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let clean = run_audited ~index_path ~ledger_path ~asks:[ e0; e0; e0 ] in
  Alcotest.(check bool) "clean run audited" true (clean.Server.audits >= 3);
  Alcotest.(check int) "clean run all in band" 0
    clean.Server.audits_out_of_band;
  Alcotest.(check bool) "clean run: no alarm" false clean.Server.drift_alarm;
  Alcotest.(check bool) "clean gauge down" true
    (List.assoc_opt "serve.drift_alarm"
       (Metrics.snapshot ()).Metrics.snap_gauges
    = Some 0.0);
  let clean_audits = audit_records ~ledger_path in
  Alcotest.(check bool) "clean audit records written" true
    (List.length clean_audits >= 3);
  List.iter
    (fun r ->
      Alcotest.(check (option (float 0.0))) "in_band = 1" (Some 1.0)
        (Ledger.metric r "in_band"))
    clean_audits;
  Sys.remove index_path;
  Sys.remove ledger_path;
  (* injected drift: serve a Talg the model no longer predicts for that
     configuration — every audit lands out of band and latches the alarm *)
  let drifted_path = fresh_path ".json" in
  let drifted_ledger = fresh_path ".jsonl" in
  let drifted = Index.create () in
  Index.add drifted { entry with Index.e_talg = entry.Index.e_talg *. 2.0 };
  (match Index.save drifted ~path:drifted_path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let summary =
    run_audited ~index_path:drifted_path ~ledger_path:drifted_ledger
      ~asks:[ e0; e0 ]
  in
  Alcotest.(check bool) "drift run audited" true (summary.Server.audits >= 2);
  Alcotest.(check bool) "audits fell out of band" true
    (summary.Server.audits_out_of_band >= 2);
  Alcotest.(check bool) "drift alarm latched" true summary.Server.drift_alarm;
  Alcotest.(check bool) "drift gauge up" true
    (List.assoc_opt "serve.drift_alarm"
       (Metrics.snapshot ()).Metrics.snap_gauges
    = Some 1.0);
  let audits = audit_records ~ledger_path:drifted_ledger in
  Alcotest.(check bool) "audit ledger records written" true
    (List.length audits >= 2);
  List.iter
    (fun r ->
      Alcotest.(check (option (float 0.0))) "in_band = 0" (Some 0.0)
        (Ledger.metric r "in_band");
      (match Ledger.metric r "rel_err" with
      | Some _ -> ()
      | None -> Alcotest.fail "audit record without rel_err");
      (* diffable offline: hexlens explain needs components + provenance *)
      (match (Ledger.metric r "attr.global_mem", Ledger.metric r "pred.talg")
       with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "audit record without attribution metrics");
      (match
         ( List.assoc_opt "space" r.Ledger.labels,
           List.assoc_opt "time" r.Ledger.labels )
       with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "audit record without space/time labels");
      match List.assoc_opt "req_id" r.Ledger.labels with
      | Some id -> Alcotest.(check bool) "audit labels req_id" true (id <> "")
      | None -> Alcotest.fail "audit record without a req_id label")
    audits;
  Sys.remove drifted_path;
  Sys.remove drifted_ledger;
  (* the advisor-level verdict agrees: the perturbed Talg is out of band,
     the pristine one is in band with zero relative error *)
  let arch = e0.H.Experiments.arch in
  let problem = e0.H.Experiments.problem in
  (match
     Advisor.audit arch problem ~config:entry.Index.e_config
       ~talg:entry.Index.e_talg
   with
  | Ok a ->
      Alcotest.(check bool) "pristine entry in band" true a.Advisor.au_in_band;
      Alcotest.(check bool) "pristine entry is the arg-min" true
        a.Advisor.au_argmin_match;
      Alcotest.(check (float 1e-12)) "zero relative error" 0.0
        a.Advisor.au_rel_err
  | Error m -> Alcotest.fail m);
  match
    Advisor.audit arch problem ~config:entry.Index.e_config
      ~talg:(entry.Index.e_talg *. 2.0)
  with
  | Ok a ->
      Alcotest.(check bool) "perturbed entry out of band" false
        a.Advisor.au_in_band
  | Error m -> Alcotest.fail m

(* --- graceful shutdown, one ledger record -------------------------------------- *)

(* However a run ends, the server writes its one [serve] ledger record:
   labelled with the socket, with [shutdown] only when a signal ended the
   run, and carrying the [requests_per_sec] hexlens watches. *)
let one_serve_record what ~ledger_path ~socket_path =
  match Ledger.load ~path:ledger_path with
  | Error m -> Alcotest.fail m
  | Ok loaded -> (
      match Ledger.filter ~kind:"serve" loaded.Ledger.entries with
      | [ r ] ->
          Alcotest.(check (option string))
            (what ^ ": labelled with the socket")
            (Some socket_path)
            (List.assoc_opt "socket" r.Ledger.labels);
          Alcotest.(check (option (float 0.0)))
            (what ^ ": final request count")
            (Some 1.0)
            (Ledger.metric r "requests");
          Alcotest.(check bool)
            (what ^ ": requests_per_sec recorded")
            true
            (Ledger.metric r "requests_per_sec" <> None);
          Alcotest.(check bool)
            (what ^ ": elapsed_s recorded")
            true
            (Ledger.metric r "elapsed_s" <> None);
          Alcotest.(check bool)
            (what ^ ": no uptime_s beside elapsed_s")
            true
            (Ledger.metric r "uptime_s" = None);
          Alcotest.(check bool)
            (what ^ ": carries the full metrics snapshot")
            true (r.Ledger.snapshot <> None);
          List.assoc_opt "shutdown" r.Ledger.labels
      | rs ->
          Alcotest.failf "%s: expected 1 serve record, got %d" what
            (List.length rs))

let test_graceful_shutdown_on_sigterm () =
  let e0 = List.hd (H.Experiments.all H.Experiments.Ci) in
  let index_path = fresh_path ".json" in
  let index = Index.create () in
  Index.add index (entry_of e0);
  (match Index.save index ~path:index_path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let socket_path = fresh_path ".sock" in
  let ledger_path = fresh_path ".jsonl" in
  let access_log = fresh_path "-access.jsonl" in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~index_path ~exec:Parsweep.serial ~ledger_path
          ~access_log_path:access_log
          ~on_ready:(fun () -> Atomic.set ready true)
          ~socket_path ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let warm_ask fd =
    match ask fd e0 with
    | Ok { Proto.source = Proto.Warm; _ } -> ()
    | Ok _ -> Alcotest.fail "prebuilt index answered cold"
    | Error m -> Alcotest.fail m
  in
  let fd = connect socket_path in
  warm_ask fd;
  Client.close fd;
  (* SIGTERM instead of a shutdown frame: the loop must fall through to
     the same cleanup — flush the access log, write the ledger record,
     unlink the socket *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let summary = Domain.join srv in
  Alcotest.(check int) "the served request survived the signal" 1
    summary.Server.requests;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path);
  Alcotest.(check bool) "access log flushed on signal exit" true
    ((Unix.stat access_log).Unix.st_size > 0);
  Alcotest.(check (option string)) "the record names the signal"
    (Some "sigterm")
    (one_serve_record "sigterm" ~ledger_path ~socket_path);
  Sys.remove ledger_path;
  Sys.remove access_log;
  (* the other two exits, max_requests and a shutdown frame, leave the
     same one record, without a shutdown label *)
  List.iter
    (fun (what, max_requests, stop) ->
      let socket_path = fresh_path ".sock" in
      let ledger_path = fresh_path ".jsonl" in
      let srv =
        Domain.spawn (fun () ->
            Server.run ~index_path ~exec:Parsweep.serial ?max_requests
              ~ledger_path ~socket_path ())
      in
      let fd = connect socket_path in
      warm_ask fd;
      stop fd;
      Client.close fd;
      let (_ : Server.summary) = Domain.join srv in
      Alcotest.(check (option string)) (what ^ ": no shutdown label") None
        (one_serve_record what ~ledger_path ~socket_path);
      Sys.remove ledger_path)
    [
      ("max_requests", Some 1, ignore);
      ( "shutdown frame",
        None,
        fun fd ->
          match Client.shutdown fd with
          | Ok () -> ()
          | Error m -> Alcotest.fail m );
    ];
  Sys.remove index_path

(* --- clients that hang up, index files that do not load -------------------- *)

let save_one_entry_index (e : H.Experiments.t) =
  let index_path = fresh_path ".json" in
  let index = Index.create () in
  Index.add index (entry_of e);
  (match Index.save index ~path:index_path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  index_path

(* Half the clients close right after asking, so the reply meets a closed
   socket (EPIPE, and SIGPIPE unless the server ignores it); the other half
   close once the reply has arrived, unread, so the server's next read of
   that connection fails with ECONNRESET.  Neither may take the server
   down: a client that waits gets its answer. *)
let test_hangups_do_not_kill_the_server () =
  let e0 = List.hd (H.Experiments.all H.Experiments.Ci) in
  let index_path = save_one_entry_index e0 in
  let socket_path = fresh_path ".sock" in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~index_path ~exec:Parsweep.serial ~socket_path ())
  in
  let problem = e0.H.Experiments.problem in
  let request =
    Proto.request_to_json
      (Proto.Ask
         {
           arch = e0.H.Experiments.arch.Gpu.Arch.name;
           stencil = problem.P.stencil.S.name;
           space = problem.P.space;
           time = problem.P.time;
         })
  in
  let hangups = 50 in
  for i = 1 to hangups do
    let fd = connect socket_path in
    Proto.write_frame fd request;
    (if i mod 2 = 0 then
       match Unix.select [ fd ] [] [] 10.0 with
       | [], _, _ -> Alcotest.failf "client %d: no reply within 10 s" i
       | _ -> ());
    Unix.close fd
  done;
  let fd = connect socket_path in
  (* a dead server would leave this read blocked forever *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  (match ask fd e0 with
  | Ok { Proto.source = Proto.Warm; _ } -> ()
  | Ok _ -> Alcotest.fail "the waiting client was answered cold"
  | Error m -> Alcotest.failf "the waiting client got no answer: %s" m);
  (match Client.shutdown fd with Ok () -> () | Error m -> Alcotest.fail m);
  Client.close fd;
  let summary = Domain.join srv in
  Sys.remove index_path;
  Alcotest.(check int) "every ask answered, hung up or not" (hangups + 1)
    summary.Server.requests;
  Alcotest.(check int) "all warm" (hangups + 1) summary.Server.warm_hits

(* An index file that does not load — garbage, a header of another code
   version, the one-document format of the previous schema — is moved
   aside intact before the server starts without it, so the first
   write-back cannot append to it; the cold answer then starts a new
   file. *)
let test_unloadable_index_moved_aside () =
  let e0 = List.hd (H.Experiments.all H.Experiments.Ci) in
  let line = entry_line (entry_of e0) in
  List.iter
    (fun (what, contents) ->
      let index_path = fresh_path ".json" in
      write_file index_path contents;
      let socket_path = fresh_path ".sock" in
      let srv =
        Domain.spawn (fun () ->
            Server.run ~index_path ~exec:Parsweep.serial ~max_requests:1
              ~socket_path ())
      in
      let fd = connect socket_path in
      (match ask fd e0 with
      | Ok { Proto.source = Proto.Cold; _ } -> ()
      | Ok _ -> Alcotest.failf "%s: answered warm" what
      | Error m -> Alcotest.failf "%s: %s" what m);
      Client.close fd;
      let (_ : Server.summary) = Domain.join srv in
      let dir = Filename.dirname index_path in
      (match beside index_path with
      | [ name ]
        when String.starts_with
               ~prefix:(Filename.basename index_path ^ ".bad.")
               name ->
          let moved = Filename.concat dir name in
          let kept = read_file moved in
          Sys.remove moved;
          Alcotest.(check string) (what ^ ": moved aside intact") contents kept
      | names ->
          Alcotest.failf "%s: expected one .bad. file beside the index, \
                          found [%s]"
            what (String.concat "; " names));
      Alcotest.(check string) (what ^ ": a new file with the cold answer")
        (current_header ^ line) (read_file index_path);
      Sys.remove index_path)
    [
      ("garbage", "{\"schema\":\"hextime-serve-index-v2\",\x00 torn\n" ^ line);
      ( "stale code version",
        header_line ~schema:Index.schema ~code_version:"hextime-serve-v0"
        ^ line );
      ( "previous schema",
        "{\n  \"schema\": \"hextime-serve-index-v1\",\n  \"entries\": []\n}" );
    ];
  (* a directory at the index path opens, then fails to read *)
  let dir = fresh_path ".json" in
  Unix.mkdir dir 0o755;
  (match Index.load ~path:dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a directory loaded as an index");
  Unix.rmdir dir

(* --- fault injection: the index and the ledger cut mid-write -------------- *)

(* Each cut state is built from the bytes the writers produce: a prefix of
   the index file as [Index.save] and [Index.append] wrote it, or of the
   ledger as [Ledger.append] wrote it.  A write that really fails goes to
   a tmp file that is a symlink to /dev/full. *)

let synthetic_entry i =
  let f k = float_of_int (i + 1) /. float_of_int (k + 7) in
  {
    Index.e_key = Printf.sprintf "ask|cut|%016x" (i * 0x9e3779b9);
    e_arch = "gtx980";
    e_stencil = "heat2d";
    e_space = [| 512 + i; 512 |];
    e_time = 128;
    e_config =
      Config.make_exn ~t_t:(2 * (i + 1)) ~t_s:[| 3; 64 |] ~threads:[| 128 |];
    e_talg = f 0 *. 1e-3;
    e_components =
      {
        Attribution.compute = f 1;
        global_mem = f 2;
        shared_mem = f 3;
        sync = f 4;
        launch = f 5;
        jitter = -0.0;
      };
  }

let keys (t : Index.t) =
  List.map (fun (e : Index.entry) -> e.Index.e_key) (Index.entries t)

let sorted_keys es =
  List.sort String.compare
    (List.map (fun (e : Index.entry) -> e.Index.e_key) es)

let tmp_of path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let with_full_tmp path f =
  let tmp = tmp_of path in
  Unix.symlink "/dev/full" tmp;
  Fun.protect f ~finally:(fun () ->
      try Unix.unlink tmp with Unix.Unix_error _ -> ())

let test_cut_index_journal_and_fold () =
  let saved = List.init 3 synthetic_entry in
  let appended = List.init 3 (fun i -> synthetic_entry (3 + i)) in
  let extra = synthetic_entry 6 in
  let all = Index.create () in
  List.iter (Index.add all) (saved @ appended @ [ extra ]);
  let first = Index.create () in
  List.iter (Index.add first) saved;
  let path = fresh_path ".json" in
  save_exn first path;
  List.iter (fun e -> append_exn all path [ e ]) appended;
  let file = read_file path in
  (* the offset of each line's newline: the header's, then one per entry *)
  let newlines =
    List.filter_map
      (fun i -> if file.[i] = '\n' then Some i else None)
      (List.init (String.length file) Fun.id)
  in
  Alcotest.(check int) "a header and six entry lines" 7
    (List.length newlines);
  let header_end = List.hd newlines and entry_ends = List.tl newlines in
  let lines = Index.entries first @ appended in
  for cut = 0 to String.length file do
    write_file path (String.sub file 0 cut);
    (* a line is complete once its closing brace is in, newline or not *)
    let complete =
      List.filteri (fun k _ -> List.nth entry_ends k <= cut) lines
    in
    let torn =
      if cut = 0 || List.mem (cut - 1) newlines || List.mem cut newlines then 0
      else 1
    in
    let t, r = load_counted path in
    let what = Printf.sprintf "cut at %d" cut in
    Alcotest.(check (list string)) (what ^ ": the complete lines")
      (sorted_keys complete) (keys t);
    Alcotest.(check int) (what ^ ": replayed") (List.length complete)
      r.Index.entry_lines;
    Alcotest.(check int) (what ^ ": torn lines counted") torn
      r.Index.torn_lines;
    append_exn all path [ extra ];
    let t, r = load_counted path in
    Alcotest.(check (list string)) (what ^ ": then one more append")
      (sorted_keys (complete @ [ extra ])) (keys t);
    (* a file cut inside its header holds no entry, and the append replaces
       it; anywhere else the torn line stays one torn line *)
    Alcotest.(check int) (what ^ ": torn lines after the append")
      (if cut <= header_end then 0 else torn)
      r.Index.torn_lines
  done;
  (* a save that cannot write its tmp file leaves the file byte for byte *)
  let whole = Index.create () in
  List.iter (Index.add whole) (saved @ appended);
  write_file path file;
  (match with_full_tmp path (fun () -> Index.save whole ~path) with
  | Ok () -> Alcotest.fail "a save onto a full disk reported success"
  | Error _ -> ());
  Alcotest.(check bool) "a failed save leaves no tmp" false
    (Sys.file_exists (tmp_of path));
  Alcotest.(check string) "a failed save leaves the file" file
    (read_file path);
  check_same_entries "after a failed save" whole (load_exn path);
  (* a save stopped before its rename leaves a tmp that no load reads *)
  write_file (tmp_of path) "{\"key\":";
  check_same_entries "beside a stopped save's tmp" whole (load_exn path);
  Sys.remove (tmp_of path);
  save_exn whole path;
  Alcotest.(check string) "a save rewrites the lines sorted by key"
    (current_header
    ^ String.concat "" (List.map entry_line (Index.entries whole)))
    (read_file path);
  Sys.remove path

let test_cut_ledger_append_and_compaction () =
  let record kind =
    Ledger.make ~kind ~code_version:"test-v1"
      ~labels:[ ("arch", "gtx980") ]
      ~metrics:[ ("rmse_top", 1.0 /. 3.0) ]
      ()
  in
  let append path e =
    match Ledger.append ~path e with Ok () -> () | Error m -> Alcotest.fail m
  in
  let kinds path =
    match Ledger.load ~path with
    | Ok l ->
        ( List.map (fun (e : Ledger.entry) -> e.Ledger.kind) l.Ledger.entries,
          l.Ledger.corrupt_lines )
    | Error m -> Alcotest.fail m
  in
  let path = fresh_path ".jsonl" in
  List.iter (fun k -> append path (record k)) [ "a"; "b"; "a" ];
  let base = read_file path in
  append path (record "cut");
  let line =
    let text = read_file path in
    let n = String.length base in
    String.sub text n (String.length text - n)
  in
  for cut = 0 to String.length line do
    write_file path (base ^ String.sub line 0 cut);
    let what = Printf.sprintf "ledger cut at %d" cut in
    let whole = cut >= String.length line - 1 in
    let earlier = [ "a"; "b"; "a" ] @ if whole then [ "cut" ] else [] in
    let torn = if cut = 0 || whole then 0 else 1 in
    Alcotest.(check (pair (list string) int)) (what ^ ": earlier records load")
      (earlier, torn) (kinds path);
    append path (record "after");
    Alcotest.(check (pair (list string) int)) (what ^ ": then one more append")
      (earlier @ [ "after" ], torn) (kinds path)
  done;
  (* a compaction stopped before its rename leaves the ledger as it was *)
  write_file path base;
  (match with_full_tmp path (fun () -> Ledger.compact ~path ()) with
  | Ok _ -> Alcotest.fail "a compaction onto a full disk reported success"
  | Error _ -> ());
  Alcotest.(check string) "the ledger is byte-identical" base (read_file path);
  Alcotest.(check bool) "no tmp left behind" false
    (Sys.file_exists (tmp_of path));
  (match Ledger.compact ~path () with
  | Ok (kept, dropped) ->
      Alcotest.(check (pair int int)) "then a compaction succeeds" (2, 1)
        (kept, dropped)
  | Error m -> Alcotest.fail m);
  Alcotest.(check (pair (list string) int)) "latest per identity"
    ([ "b"; "a" ], 0) (kinds path);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "proto frame round-trip" `Quick test_proto_roundtrip;
    Alcotest.test_case "proto frame bytes on the wire" `Quick test_frame_bytes;
    Alcotest.test_case "proto frame larger than socket buffer" `Quick
      test_frame_larger_than_socket_buffer;
    Alcotest.test_case "proto frame over max_frame rejected" `Quick
      test_frame_over_max_rejected;
    Alcotest.test_case "index save/load round-trip" `Quick
      test_index_roundtrip;
    Alcotest.test_case "index rejects stale code version" `Quick
      test_index_rejects_stale_code_version;
    Alcotest.test_case "cold path = exhaustive arg-min (12 experiments)"
      `Quick test_cold_path_matches_exhaustive_argmin;
    Alcotest.test_case "cold path = exhaustive arg-min (paper grid)" `Quick
      test_cold_path_matches_exhaustive_argmin_paper;
    Alcotest.test_case "serve: cold, warm, write-back, concurrent clients"
      `Quick test_serve_cold_warm_writeback_and_concurrency;
    Alcotest.test_case "hexpulse: scrape endpoint, quantile round-trip"
      `Quick test_stats_frame_quantile_roundtrip;
    Alcotest.test_case "hexpulse: access log and slow attribution" `Quick
      test_access_log_and_slow_attribution;
    Alcotest.test_case "hexpulse: drift monitor, clean and injected" `Quick
      test_drift_monitor_clean_and_injected;
    Alcotest.test_case "graceful shutdown on SIGTERM" `Quick
      test_graceful_shutdown_on_sigterm;
    QCheck_alcotest.to_alcotest prop_answer_splice_equals_tree;
    Alcotest.test_case "proto answer splice after re-add" `Quick
      test_answer_splice_after_readd;
    Alcotest.test_case "request keys and ids pinned" `Quick
      test_request_keys_and_ids_pinned;
    Alcotest.test_case "serve: hung-up clients do not kill it" `Quick
      test_hangups_do_not_kill_the_server;
    Alcotest.test_case "serve: unloadable index moved aside" `Quick
      test_unloadable_index_moved_aside;
    Alcotest.test_case "cut: index journal and fold at every byte" `Quick
      test_cut_index_journal_and_fold;
    Alcotest.test_case "cut: ledger append and compaction" `Quick
      test_cut_ledger_append_and_compaction;
  ]
