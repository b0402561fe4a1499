let read () = "42"
