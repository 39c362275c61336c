(* Facts about the host and about processes, read from /proc and the file
   system: what a result is stamped with, and the process-level metrics
   (peak RSS, CPU, bytes written). *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let proc pid file = read_file (Printf.sprintf "/proc/%s/%s" pid file)

(* "Key:   123 kB" lines of /proc/PID/status and /proc/PID/io. *)
let field text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match String.split_on_char ' ' rest with v :: _ -> int_of_string_opt v | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let peak_rss_mib pid =
  match Option.bind (proc pid "status") (fun s -> field s "VmHWM") with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* Bytes the process handed to write(2)-family calls: files, the WAL and
   sockets alike. *)
let wchar pid = Option.value ~default:0 (Option.bind (proc pid "io") (fun s -> field s "wchar"))

(* User + system CPU seconds of a process, all its threads and domains. *)
let cpu_s pid =
  match proc pid "stat" with
  | None -> nan
  | Some s ->
      let close = String.rindex s ')' in
      let after = String.sub s (close + 2) (String.length s - close - 2) in
      let fields = String.split_on_char ' ' after in
      (* The list starts at stat field 3 (state); utime and stime are fields
         14 and 15, in clock ticks of 1/100 s on Linux. *)
      let ticks i = float_of_string (List.nth fields i) in
      (ticks 11 +. ticks 12) /. 100.

let self = "self"

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { st_kind = S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir dir)

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* File-system type of the mount holding [dir]: the longest mount point
   that prefixes its real path. *)
let fs_type dir =
  let real = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let under mnt = mnt = "/" || real = mnt || String.starts_with ~prefix:(mnt ^ "/") real in
  match read_file "/proc/self/mounts" with
  | None -> "unknown"
  | Some mounts ->
      List.fold_left
        (fun (best_len, best) line ->
          match String.split_on_char ' ' line with
          | _ :: mnt :: fs :: _ when under mnt && String.length mnt > best_len ->
              (String.length mnt, fs)
          | _ -> (best_len, best))
        (-1, "unknown")
        (String.split_on_char '\n' mounts)
      |> snd

(* The checked-out commit, when the benchmark runs inside a git work tree. *)
let git_commit () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" r)) with
      | Some c -> c
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ c; name ] when name = r -> Some c
                  | _ -> None)
                (String.split_on_char '\n' packed)
              |> Option.value ~default:"unknown"))
  | Some c when c <> "" -> c
  | _ -> "unknown"

let nproc () = Domain.recommended_domain_count ()
