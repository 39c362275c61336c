(* The paper's running example: an inventory of stock items with suppliers,
   integrity constraints, and reorder triggers (an *active* database).

   Mirrors §2 (stockitem/supplier classes), §5 (constraints) and §6
   (once-only and perpetual triggers, weak coupling) of the ODE paper.

   Run with:  dune exec examples/inventory.exe *)

module Db = Ode.Database
module Value = Ode_model.Value

let schema =
  {|
  class supplier {
    sname: string;
    city: string;
  };
  class stockitem {
    name: string;
    qty: int;
    reorder_level: int;
    max_level: int;
    price: float;
    consumption: int;
    sup: ref supplier;
    constraint sane_levels: reorder_level >= 0 && max_level >= reorder_level;
    constraint in_stock_bounds: qty >= 0 && qty <= max_level;
    method value(): float = qty * price;
    method days_left(): int = qty / max(consumption, 1);
    trigger reorder(): qty <= reorder_level ==>
      { print "[reorder] ordering", str(max_level - qty), "units of", name,
              "from", sup.sname, "(", sup.city, ")"; };
    trigger perpetual lowstock(): qty * 2 < reorder_level ==>
      { print "[ALERT] critically low:", name, "qty", str(qty); };
  };
  |}

let () =
  let db = Db.open_in_memory () in
  let shell = Ode.Shell.create db in
  let run src = Ode.Shell.exec shell src in
  run schema;
  run "create cluster supplier; create cluster stockitem;";

  print_endline "== loading inventory ==";
  run
    {|
    att := pnew supplier { sname = "att", city = "berkeley hts" };
    ibm := pnew supplier { sname = "ibm", city = "fishkill" };
    dram := pnew stockitem { name = "512k dram", qty = 7500, reorder_level = 1000,
                             max_level = 15000, price = 5.0, consumption = 500, sup = att };
    sram := pnew stockitem { name = "64k sram", qty = 900, reorder_level = 800,
                             max_level = 4000, price = 12.5, consumption = 300, sup = ibm };
    activate dram.reorder();
    activate sram.reorder();
    activate dram.lowstock();
    activate sram.lowstock();
    |};

  print_endline "== stock report (forall ... by value desc) ==";
  run
    {|
    forall i in stockitem by i.value() desc {
      print i.name, "qty", str(i.qty), "value", str(i.value()), "days left", str(i.days_left());
    };
    |};

  (* Consumption loop: each day is one transaction; triggers fire as weakly
     coupled follow-up transactions when levels cross thresholds. *)
  print_endline "== simulating 4 days of consumption ==";
  for day = 1 to 4 do
    Printf.printf "-- day %d\n" day;
    run
      {|
      forall i in stockitem {
        i.qty := max(i.qty - i.consumption, 0);
      };
      |}
  done;

  (* Constraint demo: the class invariants abort violating transactions. *)
  print_endline "== constraint enforcement ==";
  (match
     Ode.Shell.exec_catching shell {| forall i in stockitem { i.qty := 0 - 5; }; |}
   with
  | Ok () -> print_endline "unexpectedly allowed!"
  | Error e -> Printf.printf "rejected as expected: %s\n" e.msg);

  print_endline "== restock (perpetual alert stops, once-only already spent) ==";
  run {| forall i in stockitem { i.qty := i.max_level; }; |};
  run {| forall i in stockitem by i.name { print i.name, "restocked to", str(i.qty); }; |};
  Db.close db
