(* A blocking HTTP/1.1 client for the daemon's routes: one request per
   connection, as the server closes after every response. *)

type reply = { code : int; body : string }

let timeout_s = 10.0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_all fd =
  let buf = Buffer.create 512 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | got ->
        Buffer.add_subbytes buf chunk 0 got;
        go ()
  in
  go ()

let parse raw =
  match String.index_opt raw ' ' with
  | None -> Error "malformed status line"
  | Some i -> (
      match int_of_string_opt (String.sub raw (i + 1) 3) with
      | None -> Error "malformed status code"
      | Some code ->
          let rec body_start j =
            if j + 3 >= String.length raw then String.length raw
            else if String.sub raw j 4 = "\r\n\r\n" then j + 4
            else body_start (j + 1)
          in
          let k = body_start 0 in
          Ok { code; body = String.sub raw k (String.length raw - k) })

(* [Error] covers refused connections, resets and timeouts. *)
let request ?traceparent ~port ~meth ~path ?(body = "") () =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            write_all fd
              (Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n%sContent-Length: %d\r\n\r\n%s"
                 meth path
                 (match traceparent with Some tp -> "traceparent: " ^ tp ^ "\r\n" | None -> "")
                 (String.length body) body);
            parse (read_all fd)
          with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
