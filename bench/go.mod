module github.com/spitfire-db/spitfire/bench

go 1.23

require github.com/spitfire-db/spitfire v0.0.0

replace github.com/spitfire-db/spitfire => ../
