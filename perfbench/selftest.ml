(* Checks of the benchmark's own arithmetic (calc.ml): percentiles
   from raw samples, ratios, the unattributed share, and the output
   digest that the workload checks compare.  Exits 1 on a failure.

     python3 perfbench/run.py --selftest *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let one_to_hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* nearest rank: the p-th percentile of 1..100 is p *)
  expect "p50 of 1..100" (close (Calc.percentile one_to_hundred 50.) 50.);
  expect "p95 of 1..100" (close (Calc.percentile one_to_hundred 95.) 95.);
  expect "p100 is the maximum" (close (Calc.percentile one_to_hundred 100.) 100.);
  let shuffled = [| 9.; 1.; 5.; 3.; 7. |] in
  expect "median of unsorted odd set" (close (Calc.median shuffled) 5.);
  expect "percentile leaves its input unsorted" (shuffled.(0) = 9.);
  expect "median of an even set is the lower middle" (close (Calc.median [| 4.; 1.; 3.; 2. |]) 2.);
  expect "p95 of 19 samples is the largest" (close (Calc.percentile (Array.init 19 float_of_int) 95.) 18.);
  expect "empty set has no percentile" (Float.is_nan (Calc.percentile [||] 50.));
  let s = Calc.Samples.create () in
  for i = 1 to 1000 do
    Calc.Samples.add s (float_of_int i)
  done;
  expect "samples grow past their first block" (Calc.Samples.count s = 1000);
  expect "samples sum" (close (Calc.Samples.sum s) 500500.);
  expect "samples p95" (close (Calc.percentile (Calc.Samples.to_array s) 95.) 950.);
  Calc.Samples.clear s;
  expect "samples clear" (Calc.Samples.count s = 0 && Calc.Samples.to_array s = [||]);
  expect "ratio" (close (Calc.ratio 3. 4.) 0.75);
  expect "ratio over nothing attempted is 0" (close (Calc.ratio 5. 0.) 0.);
  expect "unattributed share" (close (Calc.unattributed_share ~layer_sum:9. ~wall:10.) 0.1);
  expect "fully attributed" (close (Calc.unattributed_share ~layer_sum:10. ~wall:10.) 0.);
  expect "spans over the wall read negative"
    (Calc.unattributed_share ~layer_sum:11. ~wall:10. < 0.);
  let d seq body =
    { Calc.seq; recipient = "bench"; subscription = "S1"; at = 3600.; body }
  in
  let run steps notifications =
    Calc.seal (List.fold_left Calc.chain "" steps) ~notifications
  in
  let a = run [ [ d 1 "<r/>"; d 2 "<r>x</r>" ]; [ d 3 "<r/>" ] ] 7 in
  expect "equal runs have equal digests"
    (Calc.check_equal ~what:"digest" a (run [ [ d 1 "<r/>"; d 2 "<r>x</r>" ]; [ d 3 "<r/>" ] ] 7)
    = Ok ());
  (* deliberately mismatched pairs: each must fail the check *)
  let mismatched =
    [
      ("one body differs", run [ [ d 1 "<r/>"; d 2 "<r>y</r>" ]; [ d 3 "<r/>" ] ] 7);
      ("delivery order differs", run [ [ d 2 "<r>x</r>"; d 1 "<r/>" ]; [ d 3 "<r/>" ] ] 7);
      ("a report is missing", run [ [ d 1 "<r/>"; d 2 "<r>x</r>" ]; [] ] 7);
      ("notification count differs", run [ [ d 1 "<r/>"; d 2 "<r>x</r>" ]; [ d 3 "<r/>" ] ] 8);
      ( "delivery time differs",
        run [ [ d 1 "<r/>"; { (d 2 "<r>x</r>") with Calc.at = 7200. } ]; [ d 3 "<r/>" ] ] 7 );
    ]
  in
  List.iter
    (fun (name, b) ->
      expect ("digest check fails: " ^ name)
        (match Calc.check_equal ~what:"digest" a b with Error _ -> true | Ok () -> false))
    mismatched;
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
