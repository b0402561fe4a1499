type t = { write : string -> unit; flush : unit -> unit }

let of_channel oc =
  { write = (fun s -> output_string oc s); flush = (fun () -> flush oc) }

let emit t j =
  t.write (Json.to_string j);
  t.write "\n";
  t.flush ()

let record ?(extra = []) ~event tel =
  Json.Obj ((("event", Json.String event) :: extra) @ [ ("telemetry", Telemetry.to_json tel) ])
