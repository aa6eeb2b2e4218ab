let print trace =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (op : Op.t) ->
      Buffer.add_string buffer
        (Printf.sprintf "%d %d %s %d%s\n"
           (Simtime.Time.to_us op.at)
           op.client
           (Op.kind_to_string op.kind)
           (Vstore.File_id.to_int op.file)
           (if op.temporary then " T" else "")))
    (Trace.ops trace);
  Buffer.contents buffer

(* A non-negative decimal integer: digits only.  [int_of_string_opt] alone
   also reads OCaml literal syntax — [1_000], [0x10], [0b1], [+5]. *)
let nat s =
  if s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s then
    int_of_string_opt s
  else None

let parse_line line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [ at; client; kind; file ] | [ at; client; kind; file; "T" ] -> (
    let temporary = List.length (String.split_on_char ' ' (String.trim line)
                                 |> List.filter (( <> ) "")) = 5 in
    match nat at, nat client, kind, nat file with
    | Some at, Some client, ("R" | "W"), Some file ->
      Ok
        {
          Op.at = Simtime.Time.of_us at;
          client;
          kind = (if kind = "R" then Op.Read else Op.Write);
          file = Vstore.File_id.of_int file;
          temporary;
        }
    | _ -> Error "expected `<us> <client> <R|W> <file> [T]` with non-negative integers")
  | _ -> Error "expected 4 or 5 fields"

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (Trace.of_ops (List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || String.length trimmed > 0 && trimmed.[0] = '#' then
        go acc (lineno + 1) rest
      else begin
        match parse_line trimmed with
        | Ok op -> go (op :: acc) (lineno + 1) rest
        | Error why -> Error (Printf.sprintf "line %d: %s" lineno why)
      end
  in
  go [] 1 lines

let parse_exn text =
  match parse text with
  | Ok trace -> trace
  | Error why -> failwith ("Trace_io.parse: " ^ why)
