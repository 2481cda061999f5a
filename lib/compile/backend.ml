let install () = ()
