type retry = No_retry

let no_retry = No_retry
