type cipher = {
  cipher_name : string;
  server_private_key_cpu : float;
  symmetric_per_kb : float;
}

(* 1,400 req/s across 14 cores at 0.85 relative speed:
   14 * 0.85 / 1400 = 8.5 ms of reference CPU per request; most of it
   the RSA-1024 private-key operation plus apachebench-visible HTTP
   handling. *)
let rsa_1024 =
  { cipher_name = "RSA-1024"; server_private_key_cpu = 7.6e-3;
    symmetric_per_kb = 9.0e-6 }

type message =
  | Client_hello
  | Server_hello
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Change_cipher_spec
  | Finished

let handshake_messages =
  [ Client_hello; Server_hello; Certificate; Server_hello_done;
    Client_key_exchange; Change_cipher_spec; Finished ]

type state = { remaining : message list }

let initial = { remaining = handshake_messages }

let message_name = function
  | Client_hello -> "ClientHello"
  | Server_hello -> "ServerHello"
  | Certificate -> "Certificate"
  | Server_hello_done -> "ServerHelloDone"
  | Client_key_exchange -> "ClientKeyExchange"
  | Change_cipher_spec -> "ChangeCipherSpec"
  | Finished -> "Finished"

let step state msg =
  match state.remaining with
  | [] -> Error "handshake already complete"
  | expected :: rest ->
      if expected = msg then Ok { remaining = rest }
      else
        Error
          (Printf.sprintf "expected %s, got %s" (message_name expected)
             (message_name msg))

let is_complete state = state.remaining = []

(* Non-RSA handshake work: parsing, certificate send, PRF, MAC. *)
let handshake_misc_cpu = 0.5e-3

let server_handshake_cpu cipher ~stack =
  Stack.per_request_cpu stack
    ~base:(cipher.server_private_key_cpu +. handshake_misc_cpu)

let serve_request_cpu cipher ~stack ~response_kb =
  server_handshake_cpu cipher ~stack
  +. (response_kb *. cipher.symmetric_per_kb *. stack.Stack.cpu_multiplier)
