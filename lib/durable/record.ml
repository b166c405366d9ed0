module Codec = Xy_util.Codec

type tail = Clean | Torn | Corrupt

module Hashing = Xy_util.Hashing

(* The payload's signature, taken over its parts in turn, with the tag
   mixed in: nothing is concatenated just to be checksummed, which
   matters for multi-megabyte snapshot sections. *)
let checksum tag parts =
  Printf.sprintf "%016Lx"
    (Hashing.combine
       (List.fold_left Hashing.fnv1a64_from (Hashing.fnv1a64 "") parts)
       (Int64.of_int (Char.code tag)))

let header tag parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  Printf.sprintf "%c %d %s\n" tag len (checksum tag parts)

let encode tag payload =
  String.concat "" [ header tag [ payload ]; payload; "\n" ]

let output oc tag parts =
  output_string oc (header tag parts);
  List.iter (output_string oc) parts;
  output_char oc '\n'

type read = Rec of { tag : char; payload : string } | End | Damage of tail

(* A damaged length field must give a verdict, never a huge
   allocation: a length past the bytes left in the file is a short
   record.  Asking for the file size costs two syscalls, so lengths
   within one channel buffer just attempt the read, and a short read
   says the same thing. *)
let fits ic len = len < 65536 || len < in_channel_length ic - pos_in ic

let read ic =
  match input_line ic with
  | exception End_of_file -> End
  | line -> (
      match String.split_on_char ' ' line with
      | [ tag; len; crc ] when String.length tag = 1 -> (
          let tag = tag.[0] in
          match Xy_util.Parse.decimal_int len with
          | None -> Damage Corrupt
          | Some len when not (fits ic len) -> Damage Torn
          | Some len -> (
              match
                let payload = really_input_string ic len in
                (payload, input_char ic)
              with
              | exception End_of_file -> Damage Torn
              | payload, '\n' when checksum tag [ payload ] = crc ->
                  Rec { tag; payload }
              | _ -> Damage Corrupt))
      | _ ->
          (* an unframed header: cut short by a crash when nothing
             follows it, damaged in place otherwise *)
          Damage (if pos_in ic >= in_channel_length ic then Torn else Corrupt))

let scan path decode =
  match open_in_bin path with
  | exception Sys_error _ -> ([], Clean)
  | ic ->
      let rec go acc =
        match read ic with
        | End -> (acc, Clean)
        | Damage tail -> (acc, tail)
        | Rec { tag; payload } -> (
            match decode tag payload with
            | exception Codec.Malformed _ -> (acc, Corrupt)
            | x -> go (x :: acc))
      in
      let records, tail = go [] in
      close_in ic;
      (List.rev records, tail)

let sync_channel ?(fsync = true) oc =
  flush oc;
  if fsync then Unix.fsync (Unix.descr_of_out_channel oc)

let sync_dir ?(fsync = true) dir =
  if fsync then
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd

module Compaction = struct
  type phase = Indexing | Writing of out_channel

  type task = {
    path : string;
    temp : string;
    ic : in_channel;
    key : char -> string -> string * bool;
    park : unit -> bool;
    reopen : unit -> unit;
    last : (string, int) Hashtbl.t;
        (** live key -> ordinal of its last record *)
    mutable ordinal : int;
    mutable total : int;  (** records indexed *)
    mutable kept : int;
    mutable limit : int;  (** byte offset where indexing stopped *)
    mutable phase : phase;
  }

  type progress = Running | Finished of int | Abandoned

  let remove_temp temp =
    try if Sys.file_exists temp then Sys.remove temp with Sys_error _ -> ()

  let start ?(park = fun () -> true) ?(reopen = ignore) ~key path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        let temp = path ^ ".compact" in
        (* a task that crashed or was abandoned may leave its temp *)
        remove_temp temp;
        Some
          {
            path;
            temp;
            ic;
            key;
            park;
            reopen;
            last = Hashtbl.create 1024;
            ordinal = 0;
            total = 0;
            kept = 0;
            limit = 0;
            phase = Indexing;
          }

  let abandon task =
    close_in_noerr task.ic;
    (match task.phase with Writing oc -> close_out_noerr oc | Indexing -> ());
    remove_temp task.temp;
    Abandoned

  let copy_rest ic oc =
    let buf = Bytes.create 65536 in
    let rec go () =
      let n = input ic buf 0 (Bytes.length buf) in
      if n > 0 then begin
        Stdlib.output oc buf 0 n;
        go ()
      end
    in
    go ()

  (* The writer's channel is parked across the swap: it holds the old
     inode, and an append landing between the suffix copy and the
     rename would be lost.  It is reopened whether or not the swap
     succeeded. *)
  let finish task oc =
    if not (task.park ()) then abandon task
    else
      let swapped =
        match
          seek_in task.ic task.limit;
          copy_rest task.ic oc;
          sync_channel oc;
          close_out oc;
          Sys.rename task.temp task.path
        with
        | () -> true
        | exception (Sys_error _ | Unix.Unix_error _) -> false
      in
      task.reopen ();
      if not swapped then abandon task
      else begin
        close_in task.ic;
        sync_dir (Filename.dirname task.path);
        Finished (task.total - task.kept)
      end

  let advance task budget =
    match task.phase with
    | Indexing ->
        let rec go n =
          if n = 0 then Running
          else
            match read task.ic with
            | Damage _ -> abandon task
            | End ->
                task.limit <- pos_in task.ic;
                seek_in task.ic 0;
                task.phase <-
                  Writing
                    (open_out_gen
                       [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
                       0o644 task.temp);
                Running
            | Rec { tag; payload } ->
                let key, live = task.key tag payload in
                if live then Hashtbl.replace task.last key task.total
                else Hashtbl.remove task.last key;
                task.total <- task.total + 1;
                go (n - 1)
        in
        go budget
    | Writing oc ->
        let rec go n =
          if task.ordinal >= task.total then finish task oc
          else if n = 0 then Running
          else
            match read task.ic with
            | Damage _ | End -> abandon task
            | Rec { tag; payload } ->
                let key, _ = task.key tag payload in
                if Hashtbl.find_opt task.last key = Some task.ordinal then begin
                  output oc tag [ payload ];
                  task.kept <- task.kept + 1
                end;
                task.ordinal <- task.ordinal + 1;
                go (n - 1)
        in
        go budget

  let step task ~budget =
    try advance task budget
    with Sys_error _ | Unix.Unix_error _ | Codec.Malformed _ -> abandon task
end
